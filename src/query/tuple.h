// Tuples and schemas.
//
// A Tuple is one row flowing through a dataflow pipeline; a Schema names
// its columns and records each column's kind and bit width (widths drive
// the PHV-metadata accounting, constraint C5 of the planner's ILP).
//
// Tuple values live in a small-buffer vector (ValueVec): the rows the hot
// path manufactures per packet — filter-table keys, map projections,
// reduce keys, key reports — have at most four values and stay inline in
// the Tuple itself, so the data path allocates nothing for them. Wider
// rows (the materialized source tuple with one value per registered
// field) spill to the heap exactly once.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "query/value.h"

namespace sonata::query {

struct Column {
  std::string name;
  ValueKind kind = ValueKind::kUint;
  // Width in bits when carried as switch metadata. String columns use a
  // fixed budget (e.g. 256 for a DNS name); payloads are not carriable.
  int bits = 32;

  friend bool operator==(const Column&, const Column&) = default;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> cols) : cols_(std::move(cols)) {}

  [[nodiscard]] std::size_t size() const noexcept { return cols_.size(); }
  [[nodiscard]] bool empty() const noexcept { return cols_.empty(); }
  [[nodiscard]] const Column& at(std::size_t i) const { return cols_.at(i); }
  [[nodiscard]] const std::vector<Column>& columns() const noexcept { return cols_; }

  // Index of a column by name; nullopt if absent.
  [[nodiscard]] std::optional<std::size_t> index_of(std::string_view name) const noexcept;

  // Total bits to carry this schema as switch metadata.
  [[nodiscard]] int total_bits() const noexcept;

  void add(Column c) { cols_.push_back(std::move(c)); }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  std::vector<Column> cols_;
};

// Small-buffer vector of Values: up to kInlineCapacity elements live inside
// the object, larger rows move to the heap. Supports the std::vector subset
// the operators use.
class ValueVec {
 public:
  static constexpr std::size_t kInlineCapacity = 4;

  using value_type = Value;
  using iterator = Value*;
  using const_iterator = const Value*;

  ValueVec() noexcept : data_(inline_slots()), size_(0), cap_(kInlineCapacity) {}
  ValueVec(std::initializer_list<Value> init) : ValueVec() {
    reserve(init.size());
    for (const Value& v : init) unchecked_push(v);
  }
  explicit ValueVec(std::vector<Value> v) : ValueVec() {
    reserve(v.size());
    for (Value& x : v) unchecked_push(std::move(x));
  }
  ValueVec(const ValueVec& o) : ValueVec() {
    reserve(o.size_);
    for (std::size_t i = 0; i < o.size_; ++i) unchecked_push(o.data_[i]);
  }
  ValueVec(ValueVec&& o) noexcept : ValueVec() { steal(std::move(o)); }
  ValueVec& operator=(const ValueVec& o) {
    if (this == &o) return *this;
    clear();
    reserve(o.size_);
    for (std::size_t i = 0; i < o.size_; ++i) unchecked_push(o.data_[i]);
    return *this;
  }
  ValueVec& operator=(ValueVec&& o) noexcept {
    if (this == &o) return *this;
    clear();
    release_heap();
    steal(std::move(o));
    return *this;
  }
  ~ValueVec() {
    clear();
    release_heap();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  // True while the elements still live inside the Tuple (no heap spill).
  [[nodiscard]] bool is_inline() const noexcept { return data_ == inline_slots(); }

  [[nodiscard]] Value* data() noexcept { return data_; }
  [[nodiscard]] const Value* data() const noexcept { return data_; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] Value& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const Value& operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] Value& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("ValueVec::at");
    return data_[i];
  }
  [[nodiscard]] const Value& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("ValueVec::at");
    return data_[i];
  }
  [[nodiscard]] Value& front() noexcept { return data_[0]; }
  [[nodiscard]] const Value& front() const noexcept { return data_[0]; }
  [[nodiscard]] Value& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const Value& back() const noexcept { return data_[size_ - 1]; }

  void push_back(const Value& v) {
    grow_for(size_ + 1);
    unchecked_push(v);
  }
  void push_back(Value&& v) {
    grow_for(size_ + 1);
    unchecked_push(std::move(v));
  }
  template <typename... Args>
  Value& emplace_back(Args&&... args) {
    grow_for(size_ + 1);
    Value* slot = new (static_cast<void*>(data_ + size_)) Value(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void pop_back() noexcept {
    assert(size_ > 0);
    data_[--size_].~Value();
  }

  void reserve(std::size_t n) { grow_for(n); }
  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~Value();
    size_ = 0;
  }
  void assign(std::size_t n, const Value& v) {
    clear();
    reserve(n);
    for (std::size_t i = 0; i < n; ++i) unchecked_push(v);
  }

  friend bool operator==(const ValueVec& a, const ValueVec& b) noexcept {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] Value* inline_slots() noexcept {
    return std::launder(reinterpret_cast<Value*>(inline_));
  }
  [[nodiscard]] const Value* inline_slots() const noexcept {
    return std::launder(reinterpret_cast<const Value*>(inline_));
  }

  void unchecked_push(const Value& v) { new (static_cast<void*>(data_ + size_++)) Value(v); }
  void unchecked_push(Value&& v) {
    new (static_cast<void*>(data_ + size_++)) Value(std::move(v));
  }

  void grow_for(std::size_t need) {
    if (need <= cap_) return;
    std::size_t cap = cap_ * 2;
    while (cap < need) cap *= 2;
    auto* fresh = static_cast<Value*>(::operator new(cap * sizeof(Value), std::align_val_t{alignof(Value)}));
    for (std::size_t i = 0; i < size_; ++i) {
      new (static_cast<void*>(fresh + i)) Value(std::move(data_[i]));
      data_[i].~Value();
    }
    release_heap();
    data_ = fresh;
    cap_ = static_cast<std::uint32_t>(cap);
  }

  void release_heap() noexcept {
    if (!is_inline()) {
      ::operator delete(static_cast<void*>(data_), std::align_val_t{alignof(Value)});
    }
    data_ = inline_slots();
    cap_ = kInlineCapacity;
  }

  // Move the contents of `o` into this (which must be empty and inline).
  void steal(ValueVec&& o) noexcept {
    if (o.is_inline()) {
      for (std::size_t i = 0; i < o.size_; ++i) unchecked_push(std::move(o.data_[i]));
      o.clear();
    } else {
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = o.inline_slots();
      o.size_ = 0;
      o.cap_ = kInlineCapacity;
    }
  }

  Value* data_;
  std::uint32_t size_;
  std::uint32_t cap_;
  alignas(Value) unsigned char inline_[kInlineCapacity * sizeof(Value)];
};

// Initial accumulator of Tuple::hash: h = hash_combine(h, v.hash()) per
// value, starting here.
inline constexpr std::uint64_t kTupleHashSeed = 0x531a0badcafeULL;

struct Tuple {
  ValueVec values;

  Tuple() = default;
  Tuple(std::initializer_list<Value> v) : values(v) {}
  explicit Tuple(std::vector<Value> v) : values(std::move(v)) {}

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
  [[nodiscard]] const Value& at(std::size_t i) const { return values.at(i); }

  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = kTupleHashSeed;
    for (const auto& v : values) h = util::hash_combine(h, v.hash());
    return h;
  }

  friend bool operator==(const Tuple& a, const Tuple& b) noexcept { return a.values == b.values; }

  [[nodiscard]] std::string to_string() const;
};

// Project a subset of columns (by index) out of a tuple — used for group-by
// keys and join keys.
[[nodiscard]] Tuple project(const Tuple& t, std::span<const std::size_t> idxs);

struct TupleHasher {
  std::size_t operator()(const Tuple& t) const noexcept { return t.hash(); }
};

}  // namespace sonata::query
