/**
 * @file
 * The operation/region core of POM's compact IR kernel. Mirrors MLIR's
 * structure with one simplification: regions are single-block and
 * terminator-free (POM's affine subset never branches).
 *
 * Operations are generic: an op name (e.g. "affine.for", "arith.mulf"),
 * SSA operands/results, an attribute dictionary, and nested regions.
 * Dialect semantics live in the builder, verifier, interpreter and
 * emitter, keyed by op name -- the same open design MLIR uses.
 *
 * Op vocabulary used by POM:
 *  - func.func        (region; sym_name attr; block args = memref params)
 *  - affine.for       (region with one index block-arg; bound attrs;
 *                      optional hls.pipeline_ii / hls.unroll attrs)
 *  - affine.if        (region; affine.condition attr over index operands)
 *  - affine.load      (memref + index operands; affine.map attr)
 *  - affine.store     (value + memref + index operands; affine.map attr)
 *  - arith.constant   (value attr)
 *  - arith.{addf,subf,mulf,divf,maxf,minf,negf}
 *  - arith.{addi,subi,muli}
 */

#ifndef POM_IR_OPERATION_H
#define POM_IR_OPERATION_H

#include <memory>
#include <string>
#include <vector>

#include "ir/attribute.h"
#include "ir/type.h"

namespace pom::ir {

class Operation;
class Block;

/** An SSA value: an operation result or a block argument. */
class Value
{
  public:
    Value(Type type, std::string name) : type_(type), name_(std::move(name))
    {}

    const Type &type() const { return type_; }
    const std::string &name() const { return name_; }

  private:
    Type type_;
    std::string name_;
};

/** A single-block region body: arguments plus an ordered op list. */
class Block
{
  public:
    /** Append a block argument (e.g. a loop induction variable). */
    Value *addArgument(Type type, std::string name);

    const std::vector<std::unique_ptr<Value>> &arguments() const
    {
        return args_;
    }
    Value *argument(size_t i) const { return args_.at(i).get(); }
    size_t numArguments() const { return args_.size(); }

    /** Take ownership of @p op and append it. */
    Operation *push(std::unique_ptr<Operation> op);

    const std::vector<std::unique_ptr<Operation>> &operations() const
    {
        return ops_;
    }

  private:
    friend class Operation;

    std::vector<std::unique_ptr<Value>> args_;
    std::vector<std::unique_ptr<Operation>> ops_;
};

/** A generic operation. */
class Operation
{
  public:
    /** Create a detached operation. Use OpBuilder in normal code. */
    static std::unique_ptr<Operation>
    create(std::string name, std::vector<Value *> operands,
           std::vector<Type> result_types, AttrMap attrs,
           size_t num_regions = 0);

    const std::string &opName() const { return name_; }

    // Operands ----------------------------------------------------------
    size_t numOperands() const { return operands_.size(); }
    Value *operand(size_t i) const { return operands_.at(i); }
    const std::vector<Value *> &operands() const { return operands_; }

    // Results -----------------------------------------------------------
    size_t numResults() const { return results_.size(); }
    Value *result(size_t i = 0) const { return results_.at(i).get(); }

    // Attributes --------------------------------------------------------
    bool hasAttr(const std::string &key) const;
    const Attribute &attr(const std::string &key) const;
    void setAttr(const std::string &key, Attribute value);
    void removeAttr(const std::string &key);
    const AttrMap &attrs() const { return attrs_; }

    /** Convenience: integer attribute or default. */
    std::int64_t intAttrOr(const std::string &key, std::int64_t dflt) const;

    // Regions -----------------------------------------------------------
    size_t numRegions() const { return regions_.size(); }
    Block &region(size_t i = 0) { return *regions_.at(i); }
    const Block &region(size_t i = 0) const { return *regions_.at(i); }

    /** Walk this op and all nested ops pre-order. */
    template <typename Fn> void
    walk(Fn &&fn)
    {
        fn(*this);
        for (auto &r : regions_) {
            for (auto &op : r->ops_)
                op->walk(fn);
        }
    }

    template <typename Fn> void
    walk(Fn &&fn) const
    {
        fn(*this);
        for (const auto &r : regions_) {
            for (const auto &op : r->ops_)
                static_cast<const Operation *>(op.get())->walk(fn);
        }
    }

    /**
     * Print the textual form (MLIR-flavoured), the IR's debug view.
     * Value names are uniquified at print time, so two values never
     * share a name, and every attribute kind prints exactly.
     */
    std::string str(int indent = 0) const;

  private:
    Operation() = default;

    std::string name_;
    std::vector<Value *> operands_;
    std::vector<std::unique_ptr<Value>> results_;
    AttrMap attrs_;
    std::vector<std::unique_ptr<Block>> regions_;
};

} // namespace pom::ir

#endif // POM_IR_OPERATION_H
