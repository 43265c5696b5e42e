// Coverage for the error-handling backbone: Status / Result<T> semantics,
// the propagation macros (including the unbraced-if regression the hardened
// ICROWD_INTERNAL_ASSIGN_OR_RETURN fixes), and the Release-mode abort
// guarantees of ValueOrDie/MoveValueOrDie.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ingest/event_queue.h"

namespace icrowd {
namespace {

// ------------------------------------------------------- compile-time -----

// The library's contract is that Status and Result are cheap to move and
// fully copyable (when T is), so call sites never need workarounds.
static_assert(std::is_copy_constructible_v<Status>);
static_assert(std::is_nothrow_move_constructible_v<Status>);
static_assert(std::is_copy_constructible_v<Result<int>>);
static_assert(std::is_move_constructible_v<Result<std::unique_ptr<int>>>);
static_assert(!std::is_copy_constructible_v<Result<std::unique_ptr<int>>>);
// Result must stay implicitly constructible from both a value and an error
// Status: ICROWD_ASSIGN_OR_RETURN relies on `return tmp.status();`.
static_assert(std::is_convertible_v<Status, Result<int>>);
static_assert(std::is_convertible_v<int, Result<int>>);

// [[nodiscard]] presence cannot be introspected with a trait; the
// `nodiscard_compile_check` ctest entry compiles tests/nodiscard_check.cc
// with -Werror=unused-result and asserts that it FAILS, which pins the
// attribute on Status, Result, and their accessors at the compiler level.

// ------------------------------------------------------------- Status -----

TEST(StatusCodeTest, ToStringRoundTrip) {
  const std::vector<StatusCode> codes = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kUnimplemented, StatusCode::kInternal,
      StatusCode::kDataLoss,
  };
  std::set<std::string> names;
  for (StatusCode code : codes) {
    std::string name = StatusCodeToString(code);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "Unknown") << "enumerator missing from switch";
    names.insert(name);
  }
  // Distinct codes map to distinct stable names (the reverse mapping).
  EXPECT_EQ(names.size(), codes.size());
  // And every non-OK Status::ToString() leads with its code name.
  Status s = Status::FailedPrecondition("boom");
  EXPECT_EQ(s.ToString(),
            std::string(StatusCodeToString(StatusCode::kFailedPrecondition)) +
                ": boom");
}

Status Fail() { return Status::OutOfRange("inner failure"); }
Status Succeed() { return Status::OK(); }

Status PropagatesError() {
  ICROWD_RETURN_NOT_OK(Fail());
  ADD_FAILURE() << "must not run past a failed ICROWD_RETURN_NOT_OK";
  return Status::OK();
}

Status PropagatesOk() {
  ICROWD_RETURN_NOT_OK(Succeed());
  return Status::Internal("reached");
}

TEST(StatusMacroTest, ReturnNotOkPropagatesErrorAndContinuesOnOk) {
  Status err = PropagatesError();
  EXPECT_EQ(err.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(err.message(), "inner failure");
  EXPECT_EQ(PropagatesOk().code(), StatusCode::kInternal);
}

Status ReturnNotOkInUnbracedIf(bool take_branch) {
  if (take_branch)
    ICROWD_RETURN_NOT_OK(Fail());
  return Status::OK();
}

TEST(StatusMacroTest, ReturnNotOkIsSafeInUnbracedIf) {
  EXPECT_TRUE(ReturnNotOkInUnbracedIf(false).ok());
  EXPECT_EQ(ReturnNotOkInUnbracedIf(true).code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------- Result -----

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultSemanticsTest, CopyPreservesValueAndError) {
  Result<std::string> ok("payload");
  Result<std::string> ok_copy = ok;
  ASSERT_TRUE(ok_copy.ok());
  EXPECT_EQ(*ok_copy, "payload");
  EXPECT_EQ(*ok, "payload");  // source untouched

  Result<std::string> err = Status::NotFound("gone");
  Result<std::string> err_copy = err;
  EXPECT_FALSE(err_copy.ok());
  EXPECT_EQ(err_copy.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.status().message(), "gone");
}

TEST(ResultSemanticsTest, CopyAssignmentSwitchesState) {
  Result<std::string> r = Status::NotFound("gone");
  r = Result<std::string>("now ok");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "now ok");
  r = Result<std::string>(Status::Internal("bad again"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultSemanticsTest, MoveTransfersMoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(41));
  Result<std::unique_ptr<int>> moved = std::move(r);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(**moved, 41);
  std::unique_ptr<int> value = moved.MoveValueOrDie();
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 41);
}

TEST(ResultSemanticsTest, MoveValueOrDieLeavesMovedFromValue) {
  Result<std::string> r(std::string(64, 'x'));
  std::string taken = r.MoveValueOrDie();
  EXPECT_EQ(taken, std::string(64, 'x'));
  // Still ok() — the optional holds a moved-from (valid, unspecified)
  // string; reading the status is safe.
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultSemanticsTest, AccessorsOnMutableResultAllowInPlaceEdit) {
  Result<std::vector<int>> r(std::vector<int>{1, 2});
  r.ValueOrDie().push_back(3);
  r->push_back(4);
  EXPECT_EQ(r->size(), 4u);
}

// ----------------------------------------------- ASSIGN_OR_RETURN macro --

Result<std::string> DeclaringForm(int x) {
  ICROWD_ASSIGN_OR_RETURN(auto v, ParsePositive(x));
  return std::string(static_cast<size_t>(v), 'y');
}

TEST(AssignOrReturnTest, DeclaringFormPropagatesBothWays) {
  auto ok = DeclaringForm(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "yy");
  auto err = DeclaringForm(-3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.status().message(), "not positive");
}

Result<std::unique_ptr<int>> MakeBox(int x) {
  ICROWD_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return std::make_unique<int>(v);
}

Status UsesMoveOnlyAssign(int x, int* out) {
  ICROWD_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(x));
  *out = *box;
  return Status::OK();
}

TEST(AssignOrReturnTest, WorksWithMoveOnlyTypes) {
  int out = 0;
  ASSERT_TRUE(UsesMoveOnlyAssign(9, &out).ok());
  EXPECT_EQ(out, 9);
  EXPECT_EQ(UsesMoveOnlyAssign(-1, &out).code(),
            StatusCode::kInvalidArgument);
}

// Regression for the historical unbraced-if hazard: the macro used to
// expand to multiple statements, so only its first statement was governed
// by the `if`. The hardened expansion is a single statement.
Status AssignInUnbracedIf(bool take_branch, int x, int* out) {
  if (take_branch)
    ICROWD_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(AssignOrReturnTest, SingleStatementIfTakenBranch) {
  int out = 0;
  ASSERT_TRUE(AssignInUnbracedIf(true, 5, &out).ok());
  EXPECT_EQ(out, 5);
}

TEST(AssignOrReturnTest, SingleStatementIfTakenBranchPropagatesError) {
  int out = 123;
  Status s = AssignInUnbracedIf(true, -1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, 123) << "lhs must not be written on the error path";
}

TEST(AssignOrReturnTest, SingleStatementIfSkippedBranchDoesNothing) {
  int out = 123;
  // With the pre-fix macro the propagate-or-assign tail ran even when the
  // branch was skipped; -1 would have returned InvalidArgument here.
  ASSERT_TRUE(AssignInUnbracedIf(false, -1, &out).ok());
  EXPECT_EQ(out, 123);
}

Status AssignWithDanglingElse(bool take_branch, int* out) {
  if (take_branch)
    ICROWD_ASSIGN_OR_RETURN(*out, ParsePositive(7));
  else
    *out = -1;
  return Status::OK();
}

TEST(AssignOrReturnTest, ElseBindsToTheOuterIf) {
  int out = 0;
  ASSERT_TRUE(AssignWithDanglingElse(true, &out).ok());
  EXPECT_EQ(out, 7);
  ASSERT_TRUE(AssignWithDanglingElse(false, &out).ok());
  EXPECT_EQ(out, -1);
}

// ------------------------------------------- Release-mode abort guards ----

// These death tests matter most in NDEBUG builds (the default
// RelWithDebInfo), where plain assert() would compile out and ValueOrDie on
// an errored Result would silently read an empty std::optional.

TEST(ResultDeathTest, ValueOrDieOnErrorAbortsWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Result<int> r = ParsePositive(-1);
  EXPECT_DEATH((void)r.ValueOrDie(), "ValueOrDie called on errored Result");
}

TEST(ResultDeathTest, MoveValueOrDieOnErrorAbortsWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Result<std::string> r = Status::Internal("broken");
  EXPECT_DEATH((void)r.MoveValueOrDie(),
               "MoveValueOrDie called on errored Result.*broken");
}

TEST(ResultDeathTest, ConstructingFromOkStatusAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Result<int>(Status::OK()),
               "Result constructed from OK status");
}

// The ingest surface audited by tests/nodiscard_check.cc, exercised the
// RIGHT way: every [[nodiscard]] result is consumed and means what its
// contract says. The negative fixture pins that dropping these results
// cannot compile; this pins that honoring them stays ergonomic.
TEST(NodiscardSurfaceTest, IngestQueueResultsCarryTheProtocol) {
  BoundedEventQueue queue(2);
  ASSERT_TRUE(queue.Push(IngestEvent::Requested(7)));
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.events_pushed(), 1u);

  std::vector<IngestEvent> batch;
  size_t popped = queue.PopBatch(&batch, 8);
  EXPECT_EQ(popped, 1u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].worker, 7);
  EXPECT_EQ(queue.events_popped(), 1u);
  EXPECT_EQ(queue.backpressure_waits(), 0u);

  queue.Close();
  EXPECT_TRUE(queue.closed());
  // false from Push after Close is the dropped-event signal the
  // [[nodiscard]] on Push exists to protect.
  EXPECT_FALSE(queue.Push(IngestEvent::Arrived()));
  // 0 from PopBatch on a closed, drained queue is the consumer's shutdown
  // signal — likewise not droppable.
  batch.clear();
  EXPECT_EQ(queue.PopBatch(&batch, 8), 0u);
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace icrowd
