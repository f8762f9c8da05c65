// Contract-checking macros for the whole library.
//
//   GT_CHECK(cond) << "context";          // always on, in every build type
//   GT_CHECK_EQ(a, b) << "context";       // EQ NE LT LE GT GE, prints operands
//   GT_DCHECK(cond);                      // compiled out when NDEBUG (no eval)
//   GT_DCHECK_EQ(a, b);                   // EQ NE LT LE GT GE
//   GT_UNREACHABLE();                     // [[noreturn]] contract failure
//
// Policy (see DESIGN.md "Correctness tooling"):
//  - GT_CHECK guards API preconditions and cross-object compatibility
//    (merge geometry, shard ids, file-format sanity). A violation is a bug
//    in the caller; it must fail identically in Release.
//  - GT_DCHECK guards per-element hot-path invariants (bin indices inside a
//    batch, queue occupancy) where the enclosing GT_CHECK already validated
//    the batch. DCHECKs vanish from Release codegen, so they are free on the
//    paths BENCH_hotpath.json measures, and are re-enabled wholesale under
//    the asan-ubsan / tsan presets (GAMETRACE_ENABLE_DCHECKS=1).
//
// Failures route through a pluggable process-wide handler. The default
// prints file:line, the failed condition, captured operand values and the
// streamed message, then aborts. Tests install ThrowingContractHandler
// (see tests/gt_test_main.cc) so a violation becomes a catchable
// ContractViolation - death-style coverage without ASSERT_DEATH's
// fork-per-assertion overhead.
//
// Header-only on purpose: every subsystem library (stats, sim, net, ...)
// uses it, including ones below gametrace_core in the link graph.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

// GT_DCHECK compiles to nothing (operands type-checked, never evaluated)
// unless GAMETRACE_ENABLE_DCHECKS is 1. Default: on in debug builds, off
// under NDEBUG. Sanitizer presets force it to 1 from the command line.
#ifndef GAMETRACE_ENABLE_DCHECKS
#ifdef NDEBUG
#define GAMETRACE_ENABLE_DCHECKS 0
#else
#define GAMETRACE_ENABLE_DCHECKS 1
#endif
#endif

namespace gametrace {

// Everything the failure site knows, handed to the handler.
struct ContractFailure {
  const char* file;
  int line;
  // "GT_CHECK(x > 0) failed" or "GT_CHECK_EQ(a, b) failed (3 vs 5)".
  std::string condition;
  // Whatever the call site streamed after the macro; empty if nothing.
  std::string message;

  [[nodiscard]] std::string ToString() const {
    std::string out = std::string(file) + ":" + std::to_string(line) + ": " + condition;
    if (!message.empty()) out += ": " + message;
    return out;
  }
};

// Thrown by ThrowingContractHandler. Derives from std::logic_error: a
// contract violation is by definition a bug in the calling code.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const ContractFailure& failure)
      : std::logic_error(failure.ToString()), file_(failure.file), line_(failure.line) {}

  [[nodiscard]] const char* file() const noexcept { return file_; }
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  const char* file_;
  int line_;
};

// Handlers must not return; if one does, the failure site aborts anyway.
using ContractHandler = void (*)(const ContractFailure&);

[[noreturn]] inline void AbortContractHandler(const ContractFailure& failure) {
  std::fputs(failure.ToString().c_str(), stderr);
  std::fputc('\n', stderr);
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] inline void ThrowingContractHandler(const ContractFailure& failure) {
  throw ContractViolation(failure);
}

namespace internal {

// seq_cst (the defaults below) on purpose: the slot holds a lone function
// pointer with no associated payload to publish, so no weaker ordering
// buys anything, and installs are rare (test setup, ScopedFlightDump)
// while failure-path loads are never hot. Handlers that need shared state
// must synchronize it themselves (obs::ScopedFlightDump uses a mutex).
inline std::atomic<ContractHandler>& ContractHandlerSlot() {
  static std::atomic<ContractHandler> slot{&AbortContractHandler};
  return slot;
}

}  // namespace internal

// Installs `handler` process-wide and returns the previous one. Passing
// nullptr restores the default aborting handler.
inline ContractHandler SetContractHandler(ContractHandler handler) {
  return internal::ContractHandlerSlot().exchange(handler ? handler : &AbortContractHandler);
}

[[nodiscard]] inline ContractHandler GetContractHandler() {
  return internal::ContractHandlerSlot().load();
}

// RAII override, for tests that need a non-default handler in one scope.
class ScopedContractHandler {
 public:
  explicit ScopedContractHandler(ContractHandler handler)
      : previous_(SetContractHandler(handler)) {}
  ~ScopedContractHandler() { SetContractHandler(previous_); }
  ScopedContractHandler(const ScopedContractHandler&) = delete;
  ScopedContractHandler& operator=(const ScopedContractHandler&) = delete;

 private:
  ContractHandler previous_;
};

namespace internal {

[[noreturn]] inline void FailContract(const char* file, int line, std::string condition,
                                      std::string message) {
  ContractFailure failure{file, line, std::move(condition), std::move(message)};
  GetContractHandler()(failure);
  std::abort();  // handler returned: enforce noreturn
}

// Prints one operand of a GT_CHECK_OP into the failure message. Narrow
// character types print as integers (a stray 0x03 byte is not useful as a
// glyph); anything without operator<< prints a placeholder so GT_CHECK_EQ
// still works on opaque types.
template <typename T>
concept Streamable = requires(std::ostream& os, const T& value) { os << value; };

template <typename T>
void PrintOperand(std::ostream& os, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    os << (value ? "true" : "false");
  } else if constexpr (std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    os << static_cast<int>(value);
  } else if constexpr (std::is_enum_v<T>) {
    os << static_cast<std::underlying_type_t<T>>(value);
  } else if constexpr (Streamable<T>) {
    os << value;
  } else {
    os << "<unprintable>";
  }
}

template <typename A, typename B>
std::unique_ptr<std::string> MakeCheckOpString(const A& a, const B& b, const char* expr) {
  std::ostringstream os;
  os << expr << " (";
  PrintOperand(os, a);
  os << " vs ";
  PrintOperand(os, b);
  os << ")";
  return std::make_unique<std::string>(os.str());
}

// Integer types the std::cmp_* functions accept (no bool, no character
// types).
template <typename T>
concept CmpInteger =
    std::is_integral_v<T> && !std::is_same_v<T, bool> && !std::is_same_v<T, char> &&
    !std::is_same_v<T, wchar_t> && !std::is_same_v<T, char8_t> &&
    !std::is_same_v<T, char16_t> && !std::is_same_v<T, char32_t>;

// A signed operand against an unsigned one (GT_CHECK_NE(size, 0)): the
// built-in operator would convert the signed side to unsigned, so such
// pairs compare by value through std::cmp_* instead.
template <typename A, typename B>
concept MixedSignIntegers =
    CmpInteger<A> && CmpInteger<B> && std::is_signed_v<A> != std::is_signed_v<B>;

// One CheckOp<name> per comparison; returns null on success, the formatted
// condition text on failure. Operands are evaluated exactly once.
#define GT_INTERNAL_DEFINE_CHECK_OP(opname, op, cmp)                                       \
  template <typename A, typename B>                                                        \
  std::unique_ptr<std::string> CheckOp##opname(const A& a, const B& b, const char* expr) { \
    bool ok;                                                                               \
    if constexpr (MixedSignIntegers<A, B>) {                                               \
      ok = cmp(a, b);                                                                      \
    } else {                                                                               \
      ok = a op b;                                                                         \
    }                                                                                      \
    if (ok) [[likely]]                                                                     \
      return nullptr;                                                                      \
    return MakeCheckOpString(a, b, expr);                                                  \
  }

GT_INTERNAL_DEFINE_CHECK_OP(EQ, ==, std::cmp_equal)
GT_INTERNAL_DEFINE_CHECK_OP(NE, !=, std::cmp_not_equal)
GT_INTERNAL_DEFINE_CHECK_OP(LT, <, std::cmp_less)
GT_INTERNAL_DEFINE_CHECK_OP(LE, <=, std::cmp_less_equal)
GT_INTERNAL_DEFINE_CHECK_OP(GT, >, std::cmp_greater)
GT_INTERNAL_DEFINE_CHECK_OP(GE, >=, std::cmp_greater_equal)
#undef GT_INTERNAL_DEFINE_CHECK_OP

// Collects the `<< "context"` stream; its destructor fires the handler.
// noexcept(false): ThrowingContractHandler legitimately throws out of it.
class CheckFailStream {
 public:
  CheckFailStream(const char* file, int line, std::string condition)
      : file_(file), line_(line), condition_(std::move(condition)) {}

  CheckFailStream(const CheckFailStream&) = delete;
  CheckFailStream& operator=(const CheckFailStream&) = delete;

  template <typename T>
  CheckFailStream& operator<<(const T& value) {
    message_ << value;
    return *this;
  }

  ~CheckFailStream() noexcept(false) {
    FailContract(file_, line_, std::move(condition_), message_.str());
  }

 private:
  const char* file_;
  int line_;
  std::string condition_;
  std::ostringstream message_;
};

// Swallows the CheckFailStream expression so the ternary in GT_CHECK has
// void type on both arms. `&` binds looser than `<<`.
struct Voidify {
  void operator&(CheckFailStream&) const noexcept {}
  void operator&(CheckFailStream&&) const noexcept {}
};

}  // namespace internal
}  // namespace gametrace

#define GT_CHECK(cond)                                 \
  (cond) ? (void)0                                     \
         : ::gametrace::internal::Voidify() &          \
               ::gametrace::internal::CheckFailStream( \
                   __FILE__, __LINE__, "GT_CHECK(" #cond ") failed")

#define GT_INTERNAL_CHECK_OP(opname, a, b)                                          \
  while (std::unique_ptr<std::string> gt_internal_result =                          \
             ::gametrace::internal::CheckOp##opname(                                \
                 (a), (b), "GT_CHECK_" #opname "(" #a ", " #b ") failed"))          \
  ::gametrace::internal::Voidify() &                                                \
      ::gametrace::internal::CheckFailStream(__FILE__, __LINE__,                    \
                                             std::move(*gt_internal_result))

#define GT_CHECK_EQ(a, b) GT_INTERNAL_CHECK_OP(EQ, a, b)
#define GT_CHECK_NE(a, b) GT_INTERNAL_CHECK_OP(NE, a, b)
#define GT_CHECK_LT(a, b) GT_INTERNAL_CHECK_OP(LT, a, b)
#define GT_CHECK_LE(a, b) GT_INTERNAL_CHECK_OP(LE, a, b)
#define GT_CHECK_GT(a, b) GT_INTERNAL_CHECK_OP(GT, a, b)
#define GT_CHECK_GE(a, b) GT_INTERNAL_CHECK_OP(GE, a, b)

// Always fatal: marks states the surrounding logic must make impossible
// (exhaustive switches, unreachable fallthroughs).
#define GT_UNREACHABLE()                       \
  ::gametrace::internal::FailContract(         \
      __FILE__, __LINE__, "GT_UNREACHABLE() reached", std::string())

#if GAMETRACE_ENABLE_DCHECKS
#define GT_DCHECK(cond) GT_CHECK(cond)
#define GT_DCHECK_EQ(a, b) GT_CHECK_EQ(a, b)
#define GT_DCHECK_NE(a, b) GT_CHECK_NE(a, b)
#define GT_DCHECK_LT(a, b) GT_CHECK_LT(a, b)
#define GT_DCHECK_LE(a, b) GT_CHECK_LE(a, b)
#define GT_DCHECK_GT(a, b) GT_CHECK_GT(a, b)
#define GT_DCHECK_GE(a, b) GT_CHECK_GE(a, b)
#else
// `while (false)` keeps operands type-checked (no unused-variable warnings)
// but guarantees they are never evaluated in Release.
#define GT_DCHECK(cond) \
  while (false) GT_CHECK(cond)
#define GT_DCHECK_EQ(a, b) \
  while (false) GT_CHECK_EQ(a, b)
#define GT_DCHECK_NE(a, b) \
  while (false) GT_CHECK_NE(a, b)
#define GT_DCHECK_LT(a, b) \
  while (false) GT_CHECK_LT(a, b)
#define GT_DCHECK_LE(a, b) \
  while (false) GT_CHECK_LE(a, b)
#define GT_DCHECK_GT(a, b) \
  while (false) GT_CHECK_GT(a, b)
#define GT_DCHECK_GE(a, b) \
  while (false) GT_CHECK_GE(a, b)
#endif
