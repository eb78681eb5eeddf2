// Integer expression AST used throughout the IR: loop bounds, tensor
// offsets, boundary min() sizes, double-buffer parities.
//
// Expressions are immutable shared trees. Address expressions of DL
// operators are affine in the enclosing loop variables (Sec. 4.5.2), which
// is what makes DMA inference and auto-prefetch address inference decidable;
// min/select appear only through boundary processing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swatop::ir {

/// A loop variable: the id of its name in a process-wide, append-only
/// interner, so eval, substitute and uses_var compare and index integers
/// instead of hashing strings.
///
/// Which id a name gets depends on which thread interned it first, so ids
/// are never printed, hashed into keys or sorted: operator<< prints the
/// name, and printing, codegen, replay keys and error messages all use it.
/// Interning takes a lock, so code that runs per schedule candidate (the
/// lowering, on the sweep workers) resolves its names once per process.
class VarId {
 public:
  VarId() = default;  ///< no variable
  /// Intern `name` (non-empty): the same name always gives the same id.
  explicit VarId(std::string_view name);

  const std::string& name() const;
  /// Dense index, for slot tables (Env, rt::ExprEvaluator); 0 = none.
  std::size_t index() const { return index_; }
  explicit operator bool() const { return index_ != 0; }

  friend bool operator==(VarId a, VarId b) { return a.index_ == b.index_; }

 private:
  std::uint32_t index_ = 0;
};

/// Prints the variable's name.
std::ostream& operator<<(std::ostream& os, VarId v);

enum class ExprKind {
  Const,
  Var,
  Add,
  Sub,
  Mul,
  FloorDiv,
  Mod,
  Min,
  Max,
  Select,  ///< a != 0 ? b : c
  Lt,      ///< a < b (0/1)
  Ge,      ///< a >= b (0/1)
};

struct ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

struct ExprNode {
  ExprKind kind = ExprKind::Const;
  std::int64_t value = 0;  ///< Const payload
  VarId var;               ///< Var payload
  Expr a, b, c;            ///< operands
};

/// Variable bindings: one slot per interned id, so binding and lookup index
/// a flat vector.
class Env {
 public:
  Env() = default;
  /// Bind by name (one-off evaluations and tests): interns every name.
  Env(std::initializer_list<std::pair<std::string_view, std::int64_t>> init);

  void set(VarId v, std::int64_t value);
  void erase(VarId v);
  /// The bound value, or nullptr when `v` is unbound.
  const std::int64_t* find(VarId v) const {
    return v.index() < slots_.size() && slots_[v.index()]
               ? &*slots_[v.index()]
               : nullptr;
  }

 private:
  std::vector<std::optional<std::int64_t>> slots_;
};

// -- constructors (with local constant folding) -----------------------------
Expr cst(std::int64_t v);
Expr var(VarId v);
Expr add(Expr a, Expr b);
Expr sub(Expr a, Expr b);
Expr mul(Expr a, Expr b);
Expr floordiv(Expr a, Expr b);
Expr mod(Expr a, Expr b);
Expr min2(Expr a, Expr b);
Expr max2(Expr a, Expr b);
Expr select(Expr cond, Expr then_e, Expr else_e);
Expr lt(Expr a, Expr b);
Expr ge(Expr a, Expr b);

// Operator sugar for readable lowering code.
inline Expr operator+(Expr a, Expr b) { return add(std::move(a), std::move(b)); }
inline Expr operator-(Expr a, Expr b) { return sub(std::move(a), std::move(b)); }
inline Expr operator*(Expr a, Expr b) { return mul(std::move(a), std::move(b)); }
inline Expr operator+(Expr a, std::int64_t b) { return add(std::move(a), cst(b)); }
inline Expr operator*(Expr a, std::int64_t b) { return mul(std::move(a), cst(b)); }

// -- queries -----------------------------------------------------------------

/// Evaluate under `env`; throws CheckError on an unbound variable.
std::int64_t eval(const Expr& e, const Env& env);

/// True if the expression mentions `v`.
bool uses_var(const Expr& e, VarId v);

/// Replace every occurrence of variable `v` with `repl`.
Expr substitute(const Expr& e, VarId v, const Expr& repl);

/// True if `e` is a constant (after folding).
bool is_const(const Expr& e);
std::int64_t as_cst(const Expr& e);

std::string to_string(const Expr& e);

}  // namespace swatop::ir
