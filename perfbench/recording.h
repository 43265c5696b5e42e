#ifndef PERFBENCH_RECORDING_H_
#define PERFBENCH_RECORDING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "ingest/event.h"
#include "model/dataset.h"
#include "workload.h"

namespace perfbench {

/// One campaign's solo run: the journal a journaled DriveCampaign wrote,
/// the results it reached, and the ingest stream derived from the journal.
/// The host API hands no served task back to the producer, so a recorded
/// stream is the only valid input for a hosted replay; the journal bytes
/// and results are the oracle the replay must match bit for bit.
struct Recording {
  std::vector<uint8_t> journal;
  std::vector<icrowd::Label> results;
  std::vector<icrowd::IngestEvent> stream;
};

/// Generates every corpus of `workload`, in corpus order.
icrowd::Result<std::vector<icrowd::Dataset>> GenerateCorpora(
    const Workload& workload);

/// Records one campaign: ICrowd::Create over `dataset` with an in-memory
/// journal, then DriveCampaign with the corpus's simulated workers.
icrowd::Result<Recording> RecordCampaign(const icrowd::Dataset& dataset,
                                         const CorpusSpec& corpus,
                                         const CampaignSpec& campaign);

/// Records every campaign of `workload`, `threads` campaigns at a time.
icrowd::Result<std::vector<Recording>> RecordWorkload(
    const Workload& workload, const std::vector<icrowd::Dataset>& corpora,
    size_t threads);

/// The recording cache: journals and results of every campaign, keyed by
/// DescribeWorkload so a stale file is refused rather than replayed.
icrowd::Status SaveRecordings(const std::string& path, const Workload& workload,
                              const std::vector<Recording>& recordings);
icrowd::Result<std::vector<Recording>> LoadRecordings(
    const std::string& path, const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_RECORDING_H_
