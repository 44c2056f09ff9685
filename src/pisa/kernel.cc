#include "pisa/kernel.h"

#include <algorithm>
#include <cassert>

#include "net/dns.h"
#include "util/ip.h"

namespace sonata::pisa::kernel {

namespace {

using query::BinOp;
using query::Expr;
using query::Value;

[[nodiscard]] bool is_comparison(BinOp op) noexcept {
  switch (op) {
    case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
    case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

// `c OP x` rewritten as `x OP' c`.
[[nodiscard]] BinOp flip(BinOp op) noexcept {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

// Calls `body(f)` with `f` the scalar function of `op` (the semantics of
// Expr::bind: division by zero and shifts past 63 yield 0, booleans are
// 0/1), so each row loop is instantiated per operator.
template <typename Body>
void dispatch(BinOp op, Body&& body) {
  using u64 = std::uint64_t;
  switch (op) {
    case BinOp::kAdd: body([](u64 a, u64 b) { return a + b; }); return;
    case BinOp::kSub: body([](u64 a, u64 b) { return a - b; }); return;
    case BinOp::kMul: body([](u64 a, u64 b) { return a * b; }); return;
    case BinOp::kDiv: body([](u64 a, u64 b) { return b == 0 ? u64{0} : a / b; }); return;
    case BinOp::kMod: body([](u64 a, u64 b) { return b == 0 ? u64{0} : a % b; }); return;
    case BinOp::kBitAnd: body([](u64 a, u64 b) { return a & b; }); return;
    case BinOp::kBitOr: body([](u64 a, u64 b) { return a | b; }); return;
    case BinOp::kShl: body([](u64 a, u64 b) { return b >= 64 ? u64{0} : a << b; }); return;
    case BinOp::kShr: body([](u64 a, u64 b) { return b >= 64 ? u64{0} : a >> b; }); return;
    case BinOp::kEq: body([](u64 a, u64 b) { return u64{a == b}; }); return;
    case BinOp::kNe: body([](u64 a, u64 b) { return u64{a != b}; }); return;
    case BinOp::kLt: body([](u64 a, u64 b) { return u64{a < b}; }); return;
    case BinOp::kLe: body([](u64 a, u64 b) { return u64{a <= b}; }); return;
    case BinOp::kGt: body([](u64 a, u64 b) { return u64{a > b}; }); return;
    case BinOp::kGe: body([](u64 a, u64 b) { return u64{a >= b}; }); return;
    case BinOp::kAnd: body([](u64 a, u64 b) { return u64{a != 0 && b != 0}; }); return;
    case BinOp::kOr: body([](u64 a, u64 b) { return u64{a != 0 || b != 0}; }); return;
  }
}

// Comparison of two Values where at least one is a string, as Expr::bind
// evaluates it.
[[nodiscard]] std::uint64_t compare_values(BinOp op, const Value& a, const Value& b) noexcept {
  const bool eq = a == b;
  switch (op) {
    case BinOp::kEq: return eq;
    case BinOp::kNe: return !eq;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a < b || eq;
    case BinOp::kGt: return b < a;
    case BinOp::kGe: return b < a || eq;
    default: return 0;
  }
}

const Value& missing_value() {
  static const Value v;
  return v;
}

}  // namespace

// -- PhvBuffer ----------------------------------------------------------------

void PhvBuffer::configure(std::span<const std::uint32_t> cols, const query::Schema& schema) {
  uint_cols_.clear();
  string_cols_.clear();
  words_.assign(schema.size(), {});
  strings_.assign(schema.size(), {});
  phv_.cols.assign(schema.size(), Column{});
  for (const std::uint32_t c : cols) {
    assert(c < schema.size());
    words_[c].assign(kBlock, 0);
    phv_.cols[c].words = words_[c].data();
    if (schema.at(c).kind == query::ValueKind::kString) {
      string_cols_.push_back(c);
      strings_[c].assign(kBlock, nullptr);
      phv_.cols[c].strings = strings_[c].data();
    } else {
      uint_cols_.push_back(c);
    }
  }
}

const Phv& PhvBuffer::gather(std::span<const query::Tuple> rows) {
  assert(rows.size() <= kBlock);
  phv_.sources = rows.data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Value* v = rows[i].values.data();
    const std::size_t n = rows[i].size();
    for (const std::uint32_t c : uint_cols_) words_[c][i] = c < n ? v[c].as_uint() : 0;
    for (const std::uint32_t c : string_cols_) {
      const Value* x = c < n ? &v[c] : &missing_value();
      strings_[c][i] = x;
      words_[c][i] = x->hash();
    }
  }
  return phv_;
}

// -- Scratch ------------------------------------------------------------------

Temp Scratch::temp(bool strings) {
  if (used_words_ == words_.size()) words_.push_back(std::make_unique<std::uint64_t[]>(kBlock));
  Temp t{words_[used_words_++].get(), nullptr};
  if (strings) {
    if (used_strings_ == strings_.size()) {
      strings_.push_back(std::make_unique<const query::Value*[]>(kBlock));
    }
    t.strings = strings_[used_strings_++].get();
  }
  return t;
}

query::Value* Scratch::values() {
  if (used_values_ == values_.size()) values_.push_back(std::make_unique<Value[]>(kBlock));
  return values_[used_values_++].get();
}

std::uint64_t* Scratch::keys(std::size_t width) {
  if (keys_.size() < kBlock * width) keys_.resize(kBlock * width);
  return keys_.data();
}

const query::Value** Scratch::key_strings(std::size_t width) {
  if (key_strings_.size() < kBlock * width) key_strings_.resize(kBlock * width);
  return key_strings_.data();
}

// -- ColumnExpr ---------------------------------------------------------------

ColumnExpr::ColumnExpr(const Expr& e, const query::Schema& schema,
                       std::span<const std::uint32_t> env) {
  lower(e, schema, env);
}

int ColumnExpr::lower(const Expr& e, const query::Schema& schema,
                      std::span<const std::uint32_t> env) {
  Node n;
  n.kind = e.kind;
  switch (e.kind) {
    case Expr::Kind::kCol: {
      const std::size_t idx = schema.index_of(e.col).value_or(0);
      n.slot = env[idx];
      n.string = schema.at(idx).kind == query::ValueKind::kString;
      break;
    }
    case Expr::Kind::kConst:
      n.constant = e.constant;
      n.string = e.constant.is_string();
      n.word = n.string ? e.constant.hash() : e.constant.as_uint();
      break;
    case Expr::Kind::kBin:
      n.op = e.op;
      n.a = lower(*e.lhs, schema, env);
      n.b = lower(*e.rhs, schema, env);
      break;
    case Expr::Kind::kIpPrefix:
      n.level = e.level;
      n.a = lower(*e.arg, schema, env);
      break;
    case Expr::Kind::kDnsPrefix:
      n.level = e.level;
      n.string = true;
      n.a = lower(*e.arg, schema, env);
      break;
    case Expr::Kind::kPayloadContains:
      n.keyword = e.keyword;
      n.a = lower(*e.arg, schema, env);
      break;
  }
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

std::optional<std::uint32_t> ColumnExpr::alias() const noexcept {
  if (nodes_.size() == 1 && nodes_[0].kind == Expr::Kind::kCol) return nodes_[0].slot;
  return std::nullopt;
}

const query::Value* ColumnExpr::constant() const noexcept {
  if (nodes_.size() == 1 && nodes_[0].kind == Expr::Kind::kConst) return &nodes_[0].constant;
  return nullptr;
}

void ColumnExpr::collect_slots(std::vector<std::uint32_t>& out) const {
  for (const Node& n : nodes_) {
    if (n.kind == Expr::Kind::kCol) out.push_back(n.slot);
  }
}

void ColumnExpr::eval(const Column* cols, const std::uint32_t* sel, std::size_t m, Scratch& s,
                      Temp out) const {
  eval_node(static_cast<int>(nodes_.size()) - 1, cols, sel, m, s, out);
}

void ColumnExpr::eval_node(int i, const Column* cols, const std::uint32_t* sel, std::size_t m,
                           Scratch& s, Temp out) const {
  const Node& n = nodes_[static_cast<std::size_t>(i)];
  switch (n.kind) {
    case Expr::Kind::kCol: {
      const Column& c = cols[n.slot];
      for (std::size_t k = 0; k < m; ++k) out.words[k] = c.words[sel[k]];
      if (n.string && out.strings != nullptr) {
        for (std::size_t k = 0; k < m; ++k) out.strings[k] = c.strings[sel[k]];
      }
      return;
    }
    case Expr::Kind::kConst:
      std::fill_n(out.words, m, n.word);
      if (n.string && out.strings != nullptr) std::fill_n(out.strings, m, &n.constant);
      return;
    case Expr::Kind::kBin: {
      const Node& l = nodes_[static_cast<std::size_t>(n.a)];
      const Node& r = nodes_[static_cast<std::size_t>(n.b)];
      if (is_comparison(n.op) && (l.string || r.string)) {
        const Temp ta = s.temp(true);
        const Temp tb = s.temp(true);
        eval_node(n.a, cols, sel, m, s, ta);
        eval_node(n.b, cols, sel, m, s, tb);
        const auto value = [](const Temp& t, bool string, std::size_t k) {
          return string ? *t.strings[k] : Value{t.words[k]};
        };
        for (std::size_t k = 0; k < m; ++k) {
          out.words[k] =
              compare_values(n.op, value(ta, l.string, k), value(tb, r.string, k));
        }
        return;
      }
      eval_node(n.a, cols, sel, m, s, out);
      std::uint64_t* a = out.words;
      if (r.kind == Expr::Kind::kConst && !r.string) {
        const std::uint64_t c = r.word;
        dispatch(n.op, [&](auto f) {
          for (std::size_t k = 0; k < m; ++k) a[k] = f(a[k], c);
        });
        return;
      }
      const Temp tb = s.temp(false);
      eval_node(n.b, cols, sel, m, s, tb);
      const std::uint64_t* b = tb.words;
      dispatch(n.op, [&](auto f) {
        for (std::size_t k = 0; k < m; ++k) a[k] = f(a[k], b[k]);
      });
      return;
    }
    case Expr::Kind::kIpPrefix:
      eval_node(n.a, cols, sel, m, s, out);
      for (std::size_t k = 0; k < m; ++k) {
        out.words[k] = util::ipv4_prefix(static_cast<std::uint32_t>(out.words[k]), n.level);
      }
      return;
    case Expr::Kind::kDnsPrefix:
    case Expr::Kind::kPayloadContains: {
      const bool string_arg = nodes_[static_cast<std::size_t>(n.a)].string;
      const Temp ta = s.temp(true);
      eval_node(n.a, cols, sel, m, s, ta);
      const auto arg = [&](std::size_t k) {
        return string_arg ? ta.strings[k]->as_string() : std::string_view{};
      };
      if (n.kind == Expr::Kind::kPayloadContains) {
        for (std::size_t k = 0; k < m; ++k) {
          out.words[k] = arg(k).find(n.keyword) != std::string_view::npos;
        }
        return;
      }
      Value* owned = s.values();
      const auto labels = static_cast<std::size_t>(n.level);
      for (std::size_t k = 0; k < m; ++k) {
        owned[k] = Value{net::dns_name_prefix(arg(k), labels)};
        out.words[k] = owned[k].hash();
        if (out.strings != nullptr) out.strings[k] = &owned[k];
      }
      return;
    }
  }
}

std::size_t ColumnExpr::narrow(const Column* cols, std::uint32_t* sel, std::size_t m,
                               Scratch& s) const {
  const Node& root = nodes_.back();
  if (root.string) return 0;
  std::size_t kept = 0;
  if (root.kind == Expr::Kind::kBin && is_comparison(root.op)) {
    // Fused compare-and-compact for `column OP constant` on numbers: the
    // common filter shape (proto == 6, dPort == 22) touches one PHV word
    // per row and no temp.
    const Node& l = nodes_[static_cast<std::size_t>(root.a)];
    const Node& r = nodes_[static_cast<std::size_t>(root.b)];
    const bool numeric = !l.string && !r.string;
    const Node* col = nullptr;
    const Node* lit = nullptr;
    BinOp op = root.op;
    if (numeric && l.kind == Expr::Kind::kCol && r.kind == Expr::Kind::kConst) {
      col = &l;
      lit = &r;
    } else if (numeric && l.kind == Expr::Kind::kConst && r.kind == Expr::Kind::kCol) {
      col = &r;
      lit = &l;
      op = flip(op);
    }
    if (col != nullptr) {
      const std::uint64_t* w = cols[col->slot].words;
      const std::uint64_t c = lit->word;
      dispatch(op, [&](auto f) {
        for (std::size_t k = 0; k < m; ++k) {
          const std::uint32_t row = sel[k];
          sel[kept] = row;
          kept += f(w[row], c) != 0 ? 1 : 0;
        }
      });
      return kept;
    }
  }
  const Temp t = s.temp(false);
  eval(cols, sel, m, s, t);
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t row = sel[k];
    sel[kept] = row;
    kept += t.words[k] != 0 ? 1 : 0;
  }
  return kept;
}

void split_conjuncts(const query::ExprPtr& e, std::vector<const query::Expr*>& out) {
  if (e->kind == Expr::Kind::kBin && e->op == BinOp::kAnd) {
    split_conjuncts(e->lhs, out);
    split_conjuncts(e->rhs, out);
    return;
  }
  out.push_back(e.get());
}

}  // namespace sonata::pisa::kernel
