// Unit tests for the GT_CHECK contract macros (src/core/check.h).
//
// gt_test_main.cc installs ThrowingContractHandler process-wide, so a
// violated contract surfaces here as a catchable ContractViolation.
#include "core/check.h"

#include <gtest/gtest.h>

#include <string>

namespace gametrace {
namespace {

// --- GT_CHECK -------------------------------------------------------------

TEST(GtCheck, PassingConditionIsSilent) {
  GT_CHECK(1 + 1 == 2);
  GT_CHECK(true) << "never rendered";
}

TEST(GtCheck, FailingConditionThrowsWithConditionText) {
  try {
    GT_CHECK(2 < 1);
    FAIL() << "GT_CHECK did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("GT_CHECK(2 < 1) failed"), std::string::npos);
  }
}

TEST(GtCheck, StreamedMessageIsCaptured) {
  try {
    GT_CHECK(false) << "context " << 42 << " more";
    FAIL() << "GT_CHECK did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("context 42 more"), std::string::npos);
  }
}

TEST(GtCheck, ViolationCarriesFileAndLine) {
  try {
    GT_CHECK(false);
    FAIL() << "GT_CHECK did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.file()).find("check_test.cc"), std::string::npos);
    EXPECT_GT(e.line(), 0);
    EXPECT_NE(std::string(e.what()).find("check_test.cc"), std::string::npos);
  }
}

TEST(GtCheck, ConditionEvaluatedExactlyOnce) {
  int evaluations = 0;
  GT_CHECK(++evaluations > 0);
  EXPECT_EQ(evaluations, 1);
}

TEST(GtCheck, ViolationIsALogicError) {
  // Contract bugs must be distinguishable from environmental runtime_errors
  // (PcapError, TraceError) by catch type.
  EXPECT_THROW(GT_CHECK(false), std::logic_error);
}

// --- GT_CHECK_OP family ---------------------------------------------------

TEST(GtCheckOp, AllComparisonsPassWhenTrue) {
  GT_CHECK_EQ(3, 3);
  GT_CHECK_NE(3, 4);
  GT_CHECK_LT(3, 4);
  GT_CHECK_LE(3, 3);
  GT_CHECK_GT(4, 3);
  GT_CHECK_GE(4, 4);
}

TEST(GtCheckOp, AllComparisonsThrowWhenFalse) {
  EXPECT_THROW(GT_CHECK_EQ(3, 4), ContractViolation);
  EXPECT_THROW(GT_CHECK_NE(3, 3), ContractViolation);
  EXPECT_THROW(GT_CHECK_LT(4, 3), ContractViolation);
  EXPECT_THROW(GT_CHECK_LE(4, 3), ContractViolation);
  EXPECT_THROW(GT_CHECK_GT(3, 4), ContractViolation);
  EXPECT_THROW(GT_CHECK_GE(3, 4), ContractViolation);
}

TEST(GtCheckOp, FailureMessagePrintsBothOperands) {
  try {
    const int lhs = 3;
    const int rhs = 5;
    GT_CHECK_EQ(lhs, rhs) << "ids must match";
    FAIL() << "GT_CHECK_EQ did not fire";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("GT_CHECK_EQ(lhs, rhs) failed"), std::string::npos) << what;
    EXPECT_NE(what.find("(3 vs 5)"), std::string::npos) << what;
    EXPECT_NE(what.find("ids must match"), std::string::npos) << what;
  }
}

TEST(GtCheckOp, OperandsEvaluatedExactlyOnce) {
  int lhs_evals = 0;
  int rhs_evals = 0;
  GT_CHECK_LT((++lhs_evals, 1), (++rhs_evals, 2));
  EXPECT_EQ(lhs_evals, 1);
  EXPECT_EQ(rhs_evals, 1);
}

TEST(GtCheckOp, BoolOperandsPrintAsWords) {
  try {
    GT_CHECK_EQ(true, false);
    FAIL() << "GT_CHECK_EQ did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("(true vs false)"), std::string::npos) << e.what();
  }
}

TEST(GtCheckOp, NarrowCharOperandsPrintAsIntegers) {
  try {
    GT_CHECK_EQ('\x03', 'A');
    FAIL() << "GT_CHECK_EQ did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("(3 vs 65)"), std::string::npos) << e.what();
  }
}

enum class Opaque { kRed = 7, kBlue = 9 };

TEST(GtCheckOp, EnumOperandsPrintUnderlyingValue) {
  try {
    GT_CHECK_EQ(Opaque::kRed, Opaque::kBlue);
    FAIL() << "GT_CHECK_EQ did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("(7 vs 9)"), std::string::npos) << e.what();
  }
}

struct NotStreamable {
  int payload = 0;
  friend bool operator==(const NotStreamable&, const NotStreamable&) = default;
};

TEST(GtCheckOp, UnprintableOperandsGetPlaceholder) {
  try {
    GT_CHECK_EQ(NotStreamable{1}, NotStreamable{2});
    FAIL() << "GT_CHECK_EQ did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("(<unprintable> vs <unprintable>)"), std::string::npos)
        << e.what();
  }
}

TEST(GtCheckOp, MixedTypeComparisonCompiles) {
  const std::size_t big = 10;
  GT_CHECK_LT(3u, big);
  EXPECT_THROW(GT_CHECK_GE(3u, big), ContractViolation);
}

TEST(GtCheckOp, MixedSignComparesByValue) {
  // A plain -1 < 0u converts -1 to UINT_MAX; the check compares values.
  const std::size_t zero = 0;
  GT_CHECK_LT(-1, zero);
  GT_CHECK_NE(-1, static_cast<unsigned>(-1));
  EXPECT_THROW(GT_CHECK_GE(-1, zero), ContractViolation);
  EXPECT_THROW(GT_CHECK_EQ(-1, static_cast<unsigned>(-1)), ContractViolation);
}

// --- GT_UNREACHABLE -------------------------------------------------------

TEST(GtUnreachable, AlwaysThrows) {
  try {
    GT_UNREACHABLE();
    FAIL() << "GT_UNREACHABLE did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("GT_UNREACHABLE() reached"), std::string::npos);
  }
}

// --- handler plumbing -----------------------------------------------------

int g_recorded_line = 0;

[[noreturn]] void RecordingHandler(const ContractFailure& failure) {
  g_recorded_line = failure.line;
  throw ContractViolation(failure);
}

TEST(ContractHandler, ScopedHandlerInstallsAndRestores) {
  const ContractHandler before = GetContractHandler();
  {
    ScopedContractHandler scoped(RecordingHandler);
    EXPECT_EQ(GetContractHandler(), RecordingHandler);
    g_recorded_line = 0;
    EXPECT_THROW(GT_CHECK(false), ContractViolation);
    EXPECT_GT(g_recorded_line, 0);
  }
  EXPECT_EQ(GetContractHandler(), before);
}

TEST(ContractHandler, NullRestoresAbortingDefault) {
  const ContractHandler before = SetContractHandler(nullptr);
  EXPECT_EQ(GetContractHandler(), &AbortContractHandler);
  SetContractHandler(before);  // put the test-suite throwing handler back
  EXPECT_EQ(GetContractHandler(), before);
}

TEST(ContractHandler, FailureToStringFormatsFileLineConditionMessage) {
  const ContractFailure failure{"a/b.cc", 12, "GT_CHECK(x) failed", "why"};
  EXPECT_EQ(failure.ToString(), "a/b.cc:12: GT_CHECK(x) failed: why");
  const ContractFailure bare{"a/b.cc", 12, "GT_CHECK(x) failed", ""};
  EXPECT_EQ(bare.ToString(), "a/b.cc:12: GT_CHECK(x) failed");
}

// --- GT_DCHECK in this TU (follows build-type default) ---------------------

TEST(GtDcheck, MatchesBuildConfiguration) {
  int evaluations = 0;
  GT_DCHECK_GE((++evaluations, 1), 0);
#if GAMETRACE_ENABLE_DCHECKS
  EXPECT_EQ(evaluations, 1);
  EXPECT_THROW(GT_DCHECK(false), ContractViolation);
  EXPECT_THROW(GT_DCHECK_EQ(1, 2), ContractViolation);
#else
  EXPECT_EQ(evaluations, 0);  // compiled out: operands never evaluated
  GT_DCHECK(false);           // must be a no-op
  GT_DCHECK_EQ(1, 2);
#endif
}

TEST(GtDcheck, DanglingElseSafe) {
  // The macros must compose with unbraced if/else.
  bool reached_else = false;
  if (false)
    GT_DCHECK(true);
  else
    reached_else = true;
  EXPECT_TRUE(reached_else);

  if (false)
    GT_CHECK(true);
  else
    reached_else = true;
  EXPECT_TRUE(reached_else);
}

}  // namespace
}  // namespace gametrace
