#include "recording.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "common/binary_io.h"
#include "common/thread_pool.h"
#include "core/icrowd.h"
#include "journal/journal.h"

namespace perfbench {

using icrowd::Result;
using icrowd::Status;

namespace {

constexpr char kCacheMagic[] = "perfbench-recordings-v1";

/// Parses a recorded journal back into the ingest stream it encodes.
Status DeriveStream(Recording* recording) {
  ICROWD_ASSIGN_OR_RETURN(icrowd::JournalParse parse,
                          icrowd::ReadJournal(recording->journal));
  if (parse.dropped_bytes != 0) {
    return Status::InvalidArgument("recorded journal has a torn tail");
  }
  recording->stream = icrowd::IngestStreamFromJournal(parse.events);
  return Status::OK();
}

}  // namespace

Result<std::vector<icrowd::Dataset>> GenerateCorpora(const Workload& workload) {
  std::vector<icrowd::Dataset> corpora;
  corpora.reserve(workload.corpora.size());
  for (const CorpusSpec& spec : workload.corpora) {
    ICROWD_ASSIGN_OR_RETURN(icrowd::Dataset dataset, GenerateCorpus(spec));
    corpora.push_back(std::move(dataset));
  }
  return corpora;
}

Result<Recording> RecordCampaign(const icrowd::Dataset& dataset,
                                 const CorpusSpec& corpus,
                                 const CampaignSpec& campaign) {
  auto sink = std::make_shared<icrowd::VectorSink>();
  icrowd::ICrowdConfig config = campaign.config;
  config.journal_sink = sink;
  ICROWD_ASSIGN_OR_RETURN(std::unique_ptr<icrowd::ICrowd> system,
                          icrowd::ICrowd::Create(dataset, config));
  std::vector<icrowd::WorkerProfile> workers = GenerateWorkers(corpus, dataset);
  ICROWD_RETURN_NOT_OK(icrowd::DriveCampaign(system.get(), workers,
                                             workers.size(), campaign.drive)
                           .status());
  Recording recording;
  recording.journal = sink->bytes();
  recording.results = system->Results();
  ICROWD_RETURN_NOT_OK(DeriveStream(&recording));
  return recording;
}

Result<std::vector<Recording>> RecordWorkload(
    const Workload& workload, const std::vector<icrowd::Dataset>& corpora,
    size_t threads) {
  const size_t n = workload.campaigns.size();
  std::vector<Recording> recordings(n);
  std::mutex failure_mu;
  Status failure = Status::OK();
  icrowd::ThreadPool::ParallelFor(n, threads, [&](size_t i) {
    const CampaignSpec& campaign = workload.campaigns[i];
    Result<Recording> recorded =
        RecordCampaign(corpora[campaign.corpus],
                       workload.corpora[campaign.corpus], campaign);
    if (recorded.ok()) {
      recordings[i] = recorded.MoveValueOrDie();
      return;
    }
    std::lock_guard<std::mutex> lock(failure_mu);
    if (failure.ok()) {
      failure = Status::Internal("recording " + campaign.name + ": " +
                                 recorded.status().ToString());
    }
  });
  if (!failure.ok()) return failure;
  return recordings;
}

Status SaveRecordings(const std::string& path, const Workload& workload,
                      const std::vector<Recording>& recordings) {
  icrowd::BinaryWriter out;
  out.Str(kCacheMagic);
  out.Str(DescribeWorkload(workload));
  out.U64(recordings.size());
  for (const Recording& r : recordings) {
    out.Str(std::string(r.journal.begin(), r.journal.end()));
    out.U64(r.results.size());
    for (icrowd::Label label : r.results) out.I32(label);
  }
  // Write-then-rename, so an interrupted run never leaves a half cache.
  const std::string tmp = path + ".tmp";
  ICROWD_RETURN_NOT_OK(icrowd::WriteFileBytes(tmp, out.data()));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<std::vector<Recording>> LoadRecordings(const std::string& path,
                                              const Workload& workload) {
  ICROWD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          icrowd::ReadFileBytes(path));
  icrowd::BinaryReader in(bytes);
  if (in.Str() != kCacheMagic || in.Str() != DescribeWorkload(workload)) {
    return Status::FailedPrecondition("recording cache " + path +
                                      " was made for other inputs");
  }
  const uint64_t n = in.U64();
  if (!in.ok() || n != workload.campaigns.size()) {
    return Status::InvalidArgument("recording cache " + path + " is malformed");
  }
  std::vector<Recording> recordings(n);
  for (Recording& r : recordings) {
    const std::string journal = in.Str();
    r.journal.assign(journal.begin(), journal.end());
    const uint64_t results = in.U64();
    if (!in.ok() || results > in.remaining() / 4) {
      return Status::InvalidArgument("recording cache " + path + " is truncated");
    }
    r.results.resize(results);
    for (icrowd::Label& label : r.results) label = in.I32();
    ICROWD_RETURN_NOT_OK(DeriveStream(&r));
  }
  ICROWD_RETURN_NOT_OK(in.status());
  if (!in.AtEnd()) {
    return Status::InvalidArgument("recording cache " + path + " has trailing bytes");
  }
  return recordings;
}

}  // namespace perfbench
