// Column kernels of the switch data path.
//
// The switch runs each installed pipeline over a whole block of packets at
// a time instead of one packet through every pipeline. A block's PHV is
// columnar: one 64-bit word per packet for each source field some pipeline
// reads (numbers as-is, strings as their Value::hash() plus a pointer to
// the Value for exact compares). A pipeline keeps a selection vector of the
// rows still alive; filters narrow it, maps add derived columns, and the
// stateful operators hash the survivors' key columns in one batched pass.
//
// Expressions are lowered once, at compile time, from the Expr tree to a
// ColumnExpr: a node array evaluated column-at-a-time over the selection,
// with the operator dispatch hoisted out of the row loop. Semantics are
// those of Expr::bind's evaluator, value for value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "query/expr.h"
#include "query/tuple.h"

namespace sonata::pisa::kernel {

// Rows per kernel pass. A Switch splits larger batches into blocks of this
// size; the PHV and every temp column hold at most this many rows.
inline constexpr std::size_t kBlock = 256;

// One column of the PHV or of a pipeline's derived row, indexed by block
// row. `strings` is null for numeric columns.
struct Column {
  const std::uint64_t* words = nullptr;
  const query::Value* const* strings = nullptr;
};

// A block's columnar PHV. cols[c] is source-schema column c (words null
// when no pipeline reads it); `sources` are the block's source tuples.
struct Phv {
  const query::Tuple* sources = nullptr;
  std::vector<Column> cols;
};

// Gathers the PHV columns a set of pipelines reads out of source tuples.
class PhvBuffer {
 public:
  // Gather exactly `cols` (source-schema indices) of `schema`.
  void configure(std::span<const std::uint32_t> cols, const query::Schema& schema);
  // Gather a block (at most kBlock rows). The view stays valid until the
  // next gather and refers to `rows`, which must outlive its use.
  const Phv& gather(std::span<const query::Tuple> rows);

 private:
  std::vector<std::uint32_t> uint_cols_;
  std::vector<std::uint32_t> string_cols_;
  std::vector<std::vector<std::uint64_t>> words_;  // by source column
  std::vector<std::vector<const query::Value*>> strings_;
  Phv phv_;
};

// A temp column of an operator's survivors: entry k belongs to sel[k].
struct Temp {
  std::uint64_t* words = nullptr;
  const query::Value** strings = nullptr;
};

// Per-thread scratch for one pipeline run: the selection vector, temp
// columns (a stack released per operator), and key buffers for the
// stateful operators.
class Scratch {
 public:
  [[nodiscard]] std::uint32_t* sel() noexcept { return sel_; }
  // Next free temp column, with a string-pointer array when `strings`.
  Temp temp(bool strings);
  // Next free array of kBlock owned Values (dns_prefix results).
  query::Value* values();
  void release() noexcept { used_words_ = used_strings_ = used_values_ = 0; }

  // Key buffers, grown on demand: m rows of `width` words / pointers.
  std::uint64_t* keys(std::size_t width);
  const query::Value** key_strings(std::size_t width);
  [[nodiscard]] std::uint64_t* fps() noexcept { return fps_; }
  [[nodiscard]] std::uint64_t* deltas() noexcept { return deltas_; }
  [[nodiscard]] std::uint64_t* slots() noexcept { return slots_; }

 private:
  std::uint32_t sel_[kBlock];
  std::uint64_t fps_[kBlock];
  std::uint64_t deltas_[kBlock];
  std::uint64_t slots_[kBlock];
  std::vector<std::unique_ptr<std::uint64_t[]>> words_;
  std::vector<std::unique_ptr<const query::Value*[]>> strings_;
  std::vector<std::unique_ptr<query::Value[]>> values_;
  std::size_t used_words_ = 0;
  std::size_t used_strings_ = 0;
  std::size_t used_values_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<const query::Value*> key_strings_;
};

// An Expr lowered over a pipeline's column slots.
class ColumnExpr {
 public:
  // `env[j]` is the column slot holding column j of `schema`.
  ColumnExpr(const query::Expr& e, const query::Schema& schema,
             std::span<const std::uint32_t> env);

  [[nodiscard]] bool string_result() const noexcept { return nodes_.back().string; }
  // The slot this expression merely reads, if it is a bare column.
  [[nodiscard]] std::optional<std::uint32_t> alias() const noexcept;
  // The value, if the expression is a literal.
  [[nodiscard]] const query::Value* constant() const noexcept;
  // Appends every column slot the expression reads.
  void collect_slots(std::vector<std::uint32_t>& out) const;

  // Evaluate over rows sel[0..m) of `cols`; out entry k is row sel[k]'s.
  void eval(const Column* cols, const std::uint32_t* sel, std::size_t m, Scratch& s,
            Temp out) const;
  // Filter: keep the rows whose value is non-zero (a string value is 0,
  // as Value::as_uint reads it); compacts sel and returns the new count.
  std::size_t narrow(const Column* cols, std::uint32_t* sel, std::size_t m, Scratch& s) const;

 private:
  struct Node {
    query::Expr::Kind kind = query::Expr::Kind::kConst;
    query::BinOp op = query::BinOp::kAdd;
    bool string = false;     // the result is a string
    std::uint32_t slot = 0;  // kCol
    std::uint64_t word = 0;  // kConst: the number, or the string's hash
    query::Value constant;   // kConst
    int level = 0;           // kIpPrefix bits / kDnsPrefix labels
    std::string keyword;     // kPayloadContains
    int a = -1;              // operand (kBin lhs, or the prefix/contains argument)
    int b = -1;              // kBin rhs
  };

  int lower(const query::Expr& e, const query::Schema& schema,
            std::span<const std::uint32_t> env);
  void eval_node(int i, const Column* cols, const std::uint32_t* sel, std::size_t m,
                 Scratch& s, Temp out) const;

  std::vector<Node> nodes_;  // operands before their users; the root is last
};

// Splits a predicate into its top-level `&&` conjuncts: a row passes the
// predicate iff it passes each conjunct, so a filter narrows by one
// conjunct at a time.
void split_conjuncts(const query::ExprPtr& e, std::vector<const query::Expr*>& out);

}  // namespace sonata::pisa::kernel
