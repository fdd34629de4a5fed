/**
 * @file
 * OpBuilder: typed creation helpers for the affine/arith/memref subset
 * POM lowers into. Keeps op construction invariants (operand counts,
 * attribute names, region shapes) in one place.
 */

#ifndef POM_IR_BUILDER_H
#define POM_IR_BUILDER_H

#include <memory>
#include <string>
#include <vector>

#include "ir/operation.h"
#include "poly/affine_map.h"
#include "poly/integer_set.h"

namespace pom::ir {

/** Builds operations at an insertion block. */
class OpBuilder
{
  public:
    explicit OpBuilder(Block *block = nullptr) : block_(block) {}

    void setInsertionBlock(Block *block) { block_ = block; }

    /**
     * Create a detached func.func with the given name. Array parameters
     * are added by the caller via addFuncArg.
     */
    static std::unique_ptr<Operation> makeFunc(const std::string &name);

    /** Add a memref (or scalar) parameter to a func.func. */
    static Value *addFuncArg(Operation &func, Type type,
                             const std::string &name);

    /**
     * Create an affine.for at the insertion point.
     *
     * @param bounds Lower/upper bound lists; expressions are over
     *        (@p outer_ivs..., self) -- i.e. numOperands + 1 dims with a
     *        zero coefficient in the last position.
     * @param iter_name Name for the induction variable block argument.
     * @param outer_ivs Enclosing induction variables the bounds use.
     * @return The loop op; its body block is region(0).
     */
    Operation *createFor(poly::DimBounds bounds, const std::string &iter_name,
                         std::vector<Value *> outer_ivs);

    /**
     * Create an affine.if guarded by @p conditions (over @p ivs, in
     * operand order).
     */
    Operation *createIf(std::vector<poly::Constraint> conditions,
                        std::vector<Value *> ivs);

    /** Floating constant of the given scalar type. */
    Value *createConstant(double value, Type type);

    /**
     * Binary arithmetic op, e.g. "arith.addf". Operand types must match;
     * the result takes the operand type.
     */
    Value *createBinary(const std::string &op_name, Value *lhs, Value *rhs);

    /** Unary arithmetic op, e.g. "arith.negf". */
    Value *createUnary(const std::string &op_name, Value *operand);

    /**
     * affine.load: read memref at map(ivs). Map domain dims must equal
     * ivs count; map results must equal the memref rank.
     */
    Value *createLoad(Value *memref, poly::AffineMap map,
                      std::vector<Value *> ivs);

    /** affine.store: write @p value to memref at map(ivs). */
    Operation *createStore(Value *value, Value *memref, poly::AffineMap map,
                           std::vector<Value *> ivs);

  private:
    Operation *insert(std::unique_ptr<Operation> op);

    Block *block_;
    int name_counter_ = 0;
};

} // namespace pom::ir

#endif // POM_IR_BUILDER_H
