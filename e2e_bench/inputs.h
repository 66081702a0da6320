// Input generation for the scale-corpus workloads, and the CSV forms the
// measured program reads them back from. The generator runs in its own
// process (`emx_e2e gen`), so none of its memory or time is charged to the
// measured path; the program only ever sees the files written here.

#ifndef EMX_E2E_BENCH_INPUTS_H_
#define EMX_E2E_BENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/block/candidate_set.h"
#include "src/core/result.h"
#include "src/labeling/label.h"
#include "src/workflow/em_workflow.h"

namespace emx_e2e {

// batch_sf100, serve_read and serve_mixed read generated CSV inputs; the
// case study is generated inside the measured process.
bool IsScaleWorkload(const std::string& workload);

// The blocker `emx run --method=overlap --left-attr=AwardTitle --k=3`
// builds; the generator samples labels from its candidates and the
// workloads block with it.
std::shared_ptr<emx::Blocker> MakeTitleBlocker();

// Writes left.csv, right.csv, heldout.csv, gold.csv and labels.csv under
// `dir`: batch_sf100 at SF=100, the serving workloads at SF=40 with the
// last 4000 right rows held out, 600 labels (the self-test's tiny sizes
// are smaller). Gold pairs index the generated right table; its first rows
// are right.csv and the held-out tail follows them, so held-out row h has
// right index (rows of right.csv) + h.
emx::Status GenerateScaleInputs(const std::string& workload, uint64_t seed,
                                bool tiny, const std::string& dir);

emx::Result<emx::CandidateSet> ReadPairsCsv(const std::string& path);
emx::Result<emx::LabeledSet> ReadLabelsCsv(const std::string& path);
emx::Status WritePairsCsv(const emx::CandidateSet& pairs,
                          const std::string& path);
// The `emx run --out` format: left_id,right_id,provenance.
emx::Status WriteMatchesCsv(const emx::CandidateSet& final_matches,
                            const emx::MatchSet& provenance,
                            const std::string& path);

}  // namespace emx_e2e

#endif  // EMX_E2E_BENCH_INPUTS_H_
