#include "model/campaign_state.h"

#include <algorithm>
#include <string>

namespace icrowd {

CampaignState::CampaignState(size_t num_tasks, int assignment_size)
    : num_tasks_(num_tasks), k_(assignment_size), tasks_(num_tasks) {}

WorkerId CampaignState::RegisterWorker() {
  WorkerId id = static_cast<WorkerId>(num_workers_++);
  worker_answers_.emplace_back();
  return id;
}

Status CampaignState::CheckTask(TaskId task) const {
  if (task < 0 || static_cast<size_t>(task) >= num_tasks_) {
    return Status::OutOfRange("task id " + std::to_string(task) +
                              " out of range");
  }
  return Status::OK();
}

Status CampaignState::MarkAssigned(TaskId task, WorkerId worker) {
  ICROWD_RETURN_NOT_OK(CheckTask(task));
  if (worker < 0 || static_cast<size_t>(worker) >= num_workers_) {
    return Status::OutOfRange("worker id " + std::to_string(worker) +
                              " out of range");
  }
  TaskState& state = tasks_[task];
  if (IsAssignedTo(task, worker)) {
    return Status::AlreadyExists("worker " + std::to_string(worker) +
                                 " already assigned task " +
                                 std::to_string(task));
  }
  if (!state.qualification &&
      static_cast<int>(state.assigned.size()) >= k_) {
    return Status::FailedPrecondition("task " + std::to_string(task) +
                                      " has no remaining assignment slot");
  }
  state.assigned.push_back(worker);
  return Status::OK();
}

Status CampaignState::RecordAnswer(const AnswerRecord& answer) {
  ICROWD_RETURN_NOT_OK(CheckTask(answer.task));
  if (!IsAssignedTo(answer.task, answer.worker)) {
    return Status::FailedPrecondition(
        "answer from worker " + std::to_string(answer.worker) + " on task " +
        std::to_string(answer.task) + " without assignment");
  }
  for (const AnswerRecord& prev : tasks_[answer.task].answers) {
    if (prev.worker == answer.worker) {
      return Status::AlreadyExists("duplicate answer from worker " +
                                   std::to_string(answer.worker) +
                                   " on task " + std::to_string(answer.task));
    }
  }
  TaskState& state = tasks_[answer.task];
  state.answers.push_back(answer);
  worker_answers_[answer.worker].push_back(answer);
  all_answers_.push_back(answer);
  int votes = ++state.votes[answer.label];
  // Majority consensus: >= (k+1)/2 identical votes globally completes the
  // task (§2.1).
  if (!state.completed && votes >= (k_ + 1) / 2) {
    state.consensus = answer.label;
    state.completed = true;
    ++num_completed_;
  }
  // Multi-choice tasks can exhaust all k slots without any label reaching
  // a strict majority (three distinct answers out of four choices, say);
  // resolve by plurality — ties break toward the smaller label — so the
  // task cannot deadlock with no free slot.
  if (!state.completed &&
      static_cast<int>(state.answers.size()) >= k_) {
    Label best = kNoLabel;
    int best_votes = -1;
    for (const auto& [label, count] : state.votes) {
      if (count > best_votes) {  // map iterates ascending: ties -> smaller
        best = label;
        best_votes = count;
      }
    }
    state.consensus = best;
    state.completed = true;
    ++num_completed_;
  }
  return Status::OK();
}

bool CampaignState::CanAssign(TaskId task, WorkerId worker) const {
  if (task < 0 || static_cast<size_t>(task) >= num_tasks_) return false;
  if (tasks_[task].qualification) return !IsAssignedTo(task, worker);
  return RemainingSlots(task) > 0 && !IsAssignedTo(task, worker);
}

int CampaignState::RemainingSlots(TaskId task) const {
  return k_ - static_cast<int>(tasks_[task].assigned.size());
}

const std::vector<WorkerId>& CampaignState::AssignedWorkers(
    TaskId task) const {
  return tasks_[task].assigned;
}

bool CampaignState::IsAssignedTo(TaskId task, WorkerId worker) const {
  const std::vector<WorkerId>& assigned = tasks_[task].assigned;
  return std::find(assigned.begin(), assigned.end(), worker) !=
         assigned.end();
}

const std::vector<AnswerRecord>& CampaignState::Answers(TaskId task) const {
  return tasks_[task].answers;
}

const std::vector<AnswerRecord>& CampaignState::WorkerAnswers(
    WorkerId worker) const {
  return worker_answers_[worker];
}

std::optional<Label> CampaignState::Consensus(TaskId task) const {
  return tasks_[task].consensus;
}

std::vector<TaskId> CampaignState::UncompletedTasks() const {
  std::vector<TaskId> out;
  for (size_t t = 0; t < num_tasks_; ++t) {
    if (!tasks_[t].completed) out.push_back(static_cast<TaskId>(t));
  }
  return out;
}

void CampaignState::MarkQualification(TaskId task) {
  tasks_[task].qualification = true;
}

void CampaignState::ForceComplete(TaskId task, Label label) {
  TaskState& state = tasks_[task];
  if (!state.completed) {
    state.completed = true;
    ++num_completed_;
  }
  state.consensus = label;
}

namespace {

void SerializeAnswer(const AnswerRecord& answer, BinaryWriter* w) {
  w->I32(answer.task);
  w->I32(answer.worker);
  w->I32(answer.label);
  w->F64(answer.time);
}

AnswerRecord DeserializeAnswer(BinaryReader* r) {
  AnswerRecord answer;
  answer.task = r->I32();
  answer.worker = r->I32();
  answer.label = r->I32();
  answer.time = r->F64();
  return answer;
}

}  // namespace

void CampaignState::SerializeState(BinaryWriter* writer) const {
  writer->U64(num_tasks_);
  writer->I32(k_);
  writer->U64(num_workers_);
  writer->U64(num_completed_);
  for (const TaskState& task : tasks_) {
    writer->U64(task.assigned.size());
    for (WorkerId w : task.assigned) writer->I32(w);
    // std::map iterates in ascending label order: deterministic bytes.
    writer->U64(task.votes.size());
    for (const auto& [label, count] : task.votes) {
      writer->I32(label);
      writer->I32(count);
    }
    writer->U8(task.consensus.has_value() ? 1 : 0);
    writer->I32(task.consensus.value_or(kNoLabel));
    writer->U8(task.completed ? 1 : 0);
    writer->U8(task.qualification ? 1 : 0);
  }
  writer->U64(all_answers_.size());
  for (const AnswerRecord& answer : all_answers_) {
    SerializeAnswer(answer, writer);
  }
}

Status CampaignState::RestoreState(BinaryReader* reader) {
  if (reader->U64() != num_tasks_ || reader->I32() != k_) {
    return Status::FailedPrecondition(
        "campaign snapshot shape (num_tasks, k) does not match this state");
  }
  num_workers_ = reader->U64();
  // Each worker takes at least a status byte further on in a snapshot, so
  // a count beyond the bytes left is corrupt (and must not size a table).
  if (num_workers_ > reader->remaining()) {
    return Status::InvalidArgument("snapshot worker count is corrupt");
  }
  num_completed_ = reader->U64();
  for (TaskState& task : tasks_) {
    task = TaskState();
    uint64_t assigned = reader->U64();
    for (uint64_t i = 0; i < assigned && reader->ok(); ++i) {
      task.assigned.push_back(reader->I32());
    }
    uint64_t votes = reader->U64();
    for (uint64_t i = 0; i < votes && reader->ok(); ++i) {
      Label label = reader->I32();
      task.votes[label] = reader->I32();
    }
    bool has_consensus = reader->U8() != 0;
    Label consensus = reader->I32();
    if (has_consensus) task.consensus = consensus;
    task.completed = reader->U8() != 0;
    task.qualification = reader->U8() != 0;
    ICROWD_RETURN_NOT_OK(reader->status());
  }
  uint64_t answers = reader->U64();
  all_answers_.clear();
  worker_answers_.assign(num_workers_, {});
  for (uint64_t i = 0; i < answers && reader->ok(); ++i) {
    AnswerRecord answer = DeserializeAnswer(reader);
    if (answer.task < 0 || static_cast<size_t>(answer.task) >= num_tasks_ ||
        answer.worker < 0 ||
        static_cast<size_t>(answer.worker) >= num_workers_) {
      return Status::InvalidArgument("snapshot answer out of range");
    }
    all_answers_.push_back(answer);
    tasks_[answer.task].answers.push_back(answer);
    worker_answers_[answer.worker].push_back(answer);
  }
  return reader->status();
}

}  // namespace icrowd
