/**
 * @file
 * Target device and operator cost models for the HLS synthesis
 * estimator. This module substitutes for Xilinx Vitis HLS + the XC7Z020
 * board in the paper's evaluation (§VII.A): the device table carries the
 * board resources the paper quotes (220 DSP, 53,200 LUT, 106,400 FF,
 * 4.9 Mb BRAM at a 100 MHz target), and the operator table carries
 * latency/area characteristics of the Xilinx 7-series floating-point
 * operator IP at that clock.
 */

#ifndef POM_HLS_DEVICE_H
#define POM_HLS_DEVICE_H

#include <cstdint>

namespace pom::hls {

/** FPGA resource budget. */
struct Device
{
    int dsp = 220;
    int lut = 53200;
    int ff = 106400;
    std::int64_t bramBits = 5138022; ///< ~4.9 Mb
    double clockMHz = 100.0;

    /** The paper's target device. */
    static Device
    xc7z020()
    {
        return Device{};
    }

    /** A proportionally scaled budget (Fig. 11 resource constraints). */
    Device
    scaled(double fraction) const
    {
        Device d = *this;
        d.dsp = static_cast<int>(d.dsp * fraction);
        d.lut = static_cast<int>(d.lut * fraction);
        d.ff = static_cast<int>(d.ff * fraction);
        d.bramBits = static_cast<std::int64_t>(d.bramBits * fraction);
        return d;
    }
};

/** Per-operator latency (cycles) and area, 32-bit float at 100 MHz. */
struct OpCosts
{
    // Latency in cycles.
    int faddLat = 4;
    int fmulLat = 3;
    int fdivLat = 14;
    int fcmpLat = 1;   ///< max/min
    int iaddLat = 1;
    int imulLat = 2;
    int loadLat = 2;   ///< BRAM read
    int storeLat = 1;

    // Area per operator instance.
    int faddDsp = 2, faddLut = 214, faddFf = 227;
    int fmulDsp = 3, fmulLut = 135, fmulFf = 128;
    int fdivDsp = 0, fdivLut = 798, fdivFf = 1446;
    int fcmpDsp = 0, fcmpLut = 40, fcmpFf = 20;
    int iaddDsp = 0, iaddLut = 32, iaddFf = 32;
    int imulDsp = 1, imulLut = 26, imulFf = 45;

    // Structural overheads.
    int loopCtrlLut = 60, loopCtrlFf = 90;   ///< per loop
    int bankMuxLut = 12;                     ///< per memory bank
    int pipelineRegFfPerCopy = 220;          ///< pipeline registers
};

/** The one operator table the estimator reads. */
inline constexpr OpCosts kOpCosts{};

/** Aggregate resource usage. */
struct Resources
{
    int dsp = 0;
    int lut = 0;
    int ff = 0;
    std::int64_t bramBits = 0;

    Resources &
    operator+=(const Resources &o)
    {
        dsp += o.dsp;
        lut += o.lut;
        ff += o.ff;
        bramBits += o.bramBits;
        return *this;
    }

    Resources
    scaledBy(std::int64_t n) const
    {
        Resources r = *this;
        r.dsp = static_cast<int>(r.dsp * n);
        r.lut = static_cast<int>(r.lut * n);
        r.ff = static_cast<int>(r.ff * n);
        r.bramBits = r.bramBits * n;
        return r;
    }

    /** Elementwise max (used when sequential nests share hardware). */
    static Resources
    max(const Resources &a, const Resources &b)
    {
        Resources r;
        r.dsp = a.dsp > b.dsp ? a.dsp : b.dsp;
        r.lut = a.lut > b.lut ? a.lut : b.lut;
        r.ff = a.ff > b.ff ? a.ff : b.ff;
        r.bramBits = a.bramBits > b.bramBits ? a.bramBits : b.bramBits;
        return r;
    }

    bool
    fitsIn(const Device &device) const
    {
        return dsp <= device.dsp && lut <= device.lut && ff <= device.ff &&
               bramBits <= device.bramBits;
    }
};

/**
 * The linear power proxy over used resources (the paper reports power
 * from the Vivado report; this analytical stand-in is what
 * SynthesisReport::powerW carries and what the multi-objective DSE
 * minimizes through its LUT term). Shared by the estimator and the
 * Pareto-frontier tooling so both always agree.
 */
inline double
powerProxyW(const Resources &r)
{
    return 0.05 + r.dsp * 2.0e-3 + r.ff * 3.5e-6 + r.lut * 4.5e-6 +
           r.bramBits * 2.0e-8;
}

} // namespace pom::hls

#endif // POM_HLS_DEVICE_H
