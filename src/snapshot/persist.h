// Field walks: one list of fields per persisted type drives save, load and
// state digest alike.
//
// A persisted type T declares
//
//   template <class Self, class V> static void persist(Self& self, V& v);
//
// naming each archived field once, in archive order, through the visitor
// `v`. Self is `const T` when saving or digesting and `T` when loading, so
// the one list serves all three visitors:
//
//   SaveVisitor    writes each field onto an ArchiveWriter;
//   LoadVisitor    reads each field back from an ArchiveReader;
//   DigestVisitor  mixes each field into a Digest as one word holding its
//                  archived encoding (section tags are not mixed), so a
//                  state digest covers exactly the fields a snapshot holds.
//
// Vocabulary. Scalars are named by their wire type: u8, u16, u32, u64, i64,
// f64. flag() is a 0/1 byte, enum8() a range-checked enum byte, bytes() a
// fixed-size byte array, and u64(obj, &T::get, &T::set) a derived value
// archived through a pair of member accessors. Containers: seq() is a
// counted sequence (optionally told the fewest bytes an element archives
// as, and a hook that reserves storage filled alongside it), fixed() a
// counted one whose length must equal the live one, each() an uncounted
// one of the live length, map() a counted map in ascending key order,
// sparse() the counted (u32 index, value) entries of a vector whose other
// elements stay at their default, and ptr() a presence flag plus the
// pointee.
//
// The LoadVisitor is the one place that checks outside input, and it throws
// only SnapshotError: a count is checked against the bytes left in its
// section before anything is allocated, flags must be 0 or 1, enums in
// range, a narrowing read must fit its field, map keys and sparse indices
// must strictly increase, and expect() states the cross-field checks. The
// SaveVisitor applies expect() too, refusing to write a state that could
// not be loaded back.
//
// Loads are parse-then-commit. At the top level of a walk the LoadVisitor
// leaves the target alone: it stages every value it reads, and commit()
// moves them all into place once the whole archive has parsed. Elements of
// containers are built fresh and filled directly, then staged with their
// container. A walk may therefore branch on, or expect() about, fields of
// an element it is reading, but not on top-level fields; parsed() returns
// a staged top-level value, and stage() stages one that the walk fills
// from elements it reads later. on_commit() queues derived-state rebuilds
// that run, in walk order, after every staged value has landed; a
// top-level value archived through an atomic or a pair of accessors is
// applied from the same queue.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/digest.h"

namespace r2c2::snapshot {

namespace detail {

// Visitor half shared by SaveVisitor and DigestVisitor: both walk a const
// object and emit each field's wire value; `Out` decides where it goes.
template <class Out>
class Emitter {
 public:
  static constexpr bool kLoading = false;

  template <class T> void u8(const T& x) { out().put(static_cast<std::uint8_t>(x)); }
  template <class T> void u16(const T& x) { out().put(static_cast<std::uint16_t>(x)); }
  template <class T> void u32(const T& x) { out().put(static_cast<std::uint32_t>(x)); }
  template <class T> void u64(const T& x) { out().put(static_cast<std::uint64_t>(x)); }
  template <class T> void i64(const T& x) { out().put(static_cast<std::int64_t>(x)); }
  void u64(const std::atomic<std::uint64_t>& x) { u64(x.load(std::memory_order_relaxed)); }
  template <class Obj, class Get, class Set> void u64(Obj& obj, Get get, Set) { u64((obj.*get)()); }
  void f64(double x) { out().put(x); }
  template <class T> void flag(const T& x) { u8(x); }
  template <class E> void enum8(const E& x, E) { u8(x); }
  template <std::size_t N> void bytes(const std::array<std::uint8_t, N>& x) { out().put(x); }

  template <class C, class F, class... Reserve>
  const C& seq(const C& c, F&& elem, std::size_t = 1, Reserve&&...) {
    u64(c.size());
    return each(c, elem);
  }
  template <class C, class F> const C& fixed(const C& c, F&& elem) { return seq(c, elem); }
  template <class C, class F> const C& each(const C& c, F&& elem) {
    for (const auto& e : c) elem(e);
    return c;
  }
  template <class M, class F, class... Make> const M& map(const M& m, F&& entry, Make&&...) {
    u64(m.size());
    std::vector<std::pair<typename M::key_type, const typename M::mapped_type*>> sorted;
    sorted.reserve(m.size());
    for (const auto& [key, value] : m) sorted.emplace_back(key, &value);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, value] : sorted) entry(key, *value);
    return m;
  }
  template <class C, class Keep, class F> const C& sparse(const C& c, Keep&& keep, F&& elem) {
    u64(std::count_if(c.begin(), c.end(), keep));
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!keep(c[i])) continue;
      u32(i);
      elem(c[i]);
    }
    return c;
  }
  template <class P, class Make, class F> void ptr(const P& p, Make&&, F&& elem) {
    flag(p != nullptr);
    if (p) elem(*p);
  }

  template <class F> void on_commit(F&&) {}
  void expect(bool, const char*) {}

 private:
  Out& out() { return static_cast<Out&>(*this); }
};

}  // namespace detail

class SaveVisitor : public detail::Emitter<SaveVisitor> {
 public:
  explicit SaveVisitor(ArchiveWriter& w) : w_(w) {}

  template <class F> void section(std::string_view tag, F&& body) {
    w_.begin_section(tag);
    body();
    w_.end_section();
  }
  // A state that breaks a load-time check is not saved either.
  void expect(bool ok, const char* what) {
    if (!ok) throw SnapshotError(what);
  }

 private:
  friend class detail::Emitter<SaveVisitor>;
  void put(std::uint8_t v) { w_.u8(v); }
  void put(std::uint16_t v) { w_.u16(v); }
  void put(std::uint32_t v) { w_.u32(v); }
  void put(std::uint64_t v) { w_.u64(v); }
  void put(std::int64_t v) { w_.i64(v); }
  void put(double v) { w_.f64(v); }
  template <std::size_t N> void put(const std::array<std::uint8_t, N>& v) {
    w_.bytes(std::span<const std::uint8_t>(v));
  }

  ArchiveWriter& w_;
};

class DigestVisitor : public detail::Emitter<DigestVisitor> {
 public:
  explicit DigestVisitor(Digest& d) : d_(d) {}

  template <class F> void section(std::string_view, F&& body) { body(); }

 private:
  friend class detail::Emitter<DigestVisitor>;
  template <class T> void put(T v) {
    if constexpr (std::is_same_v<T, double>) {
      d_.mix_f64(v);
    } else {
      d_.mix(static_cast<std::uint64_t>(v));
    }
  }
  template <std::size_t N> void put(const std::array<std::uint8_t, N>& v) {
    for (std::uint8_t b : v) d_.mix(b);
  }

  Digest& d_;
};

class LoadVisitor {
 public:
  static constexpr bool kLoading = true;

  explicit LoadVisitor(ArchiveReader& r) : r_(r) {}
  LoadVisitor(const LoadVisitor&) = delete;
  LoadVisitor& operator=(const LoadVisitor&) = delete;

  template <class F> void section(std::string_view tag, F&& body) {
    r_.open_section(tag);
    body();
    r_.close_section();
  }

  template <class T> void u8(T& x) { set(x, fit<T>(r_.u8())); }
  template <class T> void u16(T& x) { set(x, fit<T>(r_.u16())); }
  template <class T> void u32(T& x) { set(x, fit<T>(r_.u32())); }
  template <class T> void u64(T& x) { set(x, fit<T>(r_.u64())); }
  template <class T> void i64(T& x) { set(x, fit<T>(r_.i64())); }
  void u64(std::atomic<std::uint64_t>& x) {
    const std::uint64_t v = r_.u64();
    defer([&x, v] { x.store(v, std::memory_order_relaxed); });
  }
  template <class Obj, class Get, class Set> void u64(Obj& obj, Get, Set set) {
    const std::uint64_t v = r_.u64();
    defer([&obj, set, v] { (obj.*set)(v); });
  }
  void f64(double& x) { set(x, r_.f64()); }
  template <class T> void flag(T& x) { set(x, static_cast<T>(read_flag())); }
  template <class E> void enum8(E& x, E last) {
    const std::uint8_t v = r_.u8();
    if (v > static_cast<std::uint8_t>(last)) {
      throw SnapshotError("archived enum value " + std::to_string(v) + " out of range");
    }
    set(x, static_cast<E>(v));
  }
  template <std::size_t N> void bytes(std::array<std::uint8_t, N>& x) {
    std::array<std::uint8_t, N> v{};
    r_.bytes(std::span<std::uint8_t>(v));
    set(x, v);
  }

  // `min_bytes`: the fewest bytes one element archives as, if the walk
  // knows more than one. The count is checked against it, and the
  // container reserves its elements up front when they take no more memory
  // than that, so a corrupt count can never make it reserve more than the
  // section holds. `reserve(n)`, if given, receives the checked count
  // before any element is read, for storage the walk fills alongside.
  template <class C, class F, class... Reserve>
  const C& seq(C& c, F&& elem, std::size_t min_bytes = 1, Reserve&&... reserve) {
    const std::size_t n = count(min_bytes);
    (reserve(n), ...);
    // The container of an element under construction is filled in place
    // (a std::deque allocates even when empty); any other is staged.
    if (fresh_ > 0) {
      c.clear();
      fill(c, n, elem, min_bytes);
      return c;
    }
    C staged;
    fill(staged, n, elem, min_bytes);
    return set(c, std::move(staged));
  }
  template <class C, class F> const C& fixed(C& c, F&& elem) {
    check_length(c.size());
    return each(c, elem);
  }
  template <class C, class F> const C& each(C& c, F&& elem) {
    C fresh(c.size());
    {
      Fresh in(*this);
      for (auto& e : fresh) elem(e);
    }
    return set(c, std::move(fresh));
  }
  template <class M, class F> const M& map(M& m, F&& entry) {
    return map(m, entry, [] { return typename M::mapped_type{}; });
  }
  template <class M, class F, class Make> const M& map(M& m, F&& entry, Make&& make) {
    const std::size_t n = count();
    M fresh;
    {
      Fresh in(*this);
      std::optional<typename M::key_type> prev;
      for (std::size_t i = 0; i < n; ++i) {
        typename M::key_type key{};
        typename M::mapped_type value = make();
        entry(key, value);
        if (prev && !(*prev < key)) {
          throw SnapshotError("archived map keys are not strictly increasing");
        }
        prev = key;
        fresh.emplace(key, std::move(value));
      }
    }
    return set(m, std::move(fresh));
  }
  template <class C, class Keep, class F> const C& sparse(C& c, Keep&& keep, F&& elem) {
    const std::size_t n = count();
    C fresh(c.size());
    {
      Fresh in(*this);
      std::size_t next = 0;  // lowest index the next entry may take
      for (std::size_t k = 0; k < n; ++k) {
        std::uint32_t i = 0;
        u32(i);
        if (i < next || i >= fresh.size()) {
          throw SnapshotError("archived sparse index out of order or range");
        }
        elem(fresh[i]);
        if (!keep(fresh[i])) throw SnapshotError("archived sparse entry holds a default value");
        next = std::size_t{i} + 1;
      }
    }
    return set(c, std::move(fresh));
  }
  template <class P, class Make, class F> void ptr(P& p, Make&& make, F&& elem) {
    P fresh;
    if (read_flag()) {
      fresh = make();
      Fresh in(*this);
      elem(*fresh);
    }
    set(p, std::move(fresh));
  }

  template <class F> void on_commit(F&& fn) { hooks_.emplace_back(std::forward<F>(fn)); }
  void expect(bool ok, const char* what) {
    if (!ok) throw SnapshotError(what);
  }
  // Stages `value` for top-level field `x` and returns the staged copy, for
  // a field the walk fills from elements it reads later; it commits with
  // everything else.
  template <class T> T& stage(T& x, T value) { return set(x, std::move(value)); }

  // The value staged for top-level field `x`, or `x` itself if the walk did
  // not stage it. Searches newest first: callers look up what they staged
  // last.
  template <class T> const T& parsed(const T& x) const {
    for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
      if ((*it)->target != &x) continue;
      if (const auto* slot = dynamic_cast<const Slot<T>*>(it->get())) return slot->value;
    }
    return x;
  }

  // Moves every staged value into place, then runs the on_commit hooks.
  void commit() {
    for (const auto& s : staged_) s->commit();
    staged_.clear();
    for (const auto& hook : hooks_) hook();
    hooks_.clear();
  }

 private:
  struct Staged {
    explicit Staged(const void* t) : target(t) {}
    virtual ~Staged() = default;
    virtual void commit() = 0;
    const void* target;  // the field commit() assigns
  };
  template <class T> struct Slot final : Staged {
    Slot(T& t, T v) : Staged(&t), field(t), value(std::move(v)) {}
    void commit() override { field = std::move(value); }
    T& field;
    T value;
  };
  // Marks the walk as filling a freshly built element.
  struct Fresh {
    explicit Fresh(LoadVisitor& v) : v_(v) { ++v_.fresh_; }
    ~Fresh() { --v_.fresh_; }
    LoadVisitor& v_;
  };

  // Reads the n elements of a seq() into c.
  template <class C, class F> void fill(C& c, std::size_t n, F& elem, std::size_t min_bytes) {
    if constexpr (requires { c.reserve(n); }) {
      if (sizeof(typename C::value_type) <= min_bytes) c.reserve(n);
    }
    Fresh in(*this);
    for (std::size_t i = 0; i < n; ++i) elem(c.emplace_back());
  }
  // Every element takes at least `min_bytes`, so a count whose elements
  // would overrun the bytes left in the section is corrupt; rejected before
  // anything is allocated.
  std::size_t count(std::size_t min_bytes = 1) {
    const std::uint64_t n = r_.u64();
    if (n > r_.remaining() / min_bytes) {
      throw SnapshotError("archive declares " + std::to_string(n) + " elements with " +
                          std::to_string(r_.remaining()) + " bytes left in the section");
    }
    return static_cast<std::size_t>(n);
  }
  void check_length(std::size_t live) {
    if (count() != live) throw SnapshotError("archived length does not match this configuration");
  }
  template <class T, class W> static T fit(W v) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                  "archive bools with flag() and enums with enum8()");
    if (!std::in_range<T>(v)) {
      throw SnapshotError("archived value " + std::to_string(v) + " does not fit its field");
    }
    return static_cast<T>(v);
  }
  bool read_flag() {
    const std::uint8_t v = r_.u8();
    if (v > 1) throw SnapshotError("archived flag is " + std::to_string(v) + ", not 0 or 1");
    return v != 0;
  }
  template <class T> T& set(T& x, T v) {
    if (fresh_ > 0) return x = std::move(v);
    auto slot = std::make_unique<Slot<T>>(x, std::move(v));
    T& staged = slot->value;
    staged_.push_back(std::move(slot));
    return staged;
  }
  template <class F> void defer(F&& fn) {
    if (fresh_ > 0) {
      fn();
    } else {
      on_commit(std::forward<F>(fn));
    }
  }

  ArchiveReader& r_;
  int fresh_ = 0;
  std::vector<std::unique_ptr<Staged>> staged_;
  std::vector<std::function<void()>> hooks_;
};

}  // namespace r2c2::snapshot
