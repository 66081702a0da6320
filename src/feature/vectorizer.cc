#include "src/feature/vectorizer.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>

#include "src/text/tokenizer.h"

namespace emx {

std::unique_ptr<Tokenizer> TokenizerForSpec(const FeaturePrepSpec& spec) {
  if (!spec.tokenize) return nullptr;
  if (spec.qgram > 0) return std::make_unique<QgramTokenizer>(spec.qgram);
  return std::make_unique<WhitespaceTokenizer>();
}

namespace {

// The distinct rows one side of the pairs references, ascending, and the
// index of each of them in that list.
struct ReferencedRows {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> index_of;  // referenced table row -> index in rows
};

Result<ReferencedRows> Reference(const CandidateSet& pairs, bool left,
                                 size_t table_rows) {
  constexpr uint32_t kUnused = UINT32_MAX;
  ReferencedRows ref;
  ref.index_of.assign(table_rows, kUnused);
  for (const RecordPair& p : pairs) {
    const uint32_t row = left ? p.left : p.right;
    if (row >= table_rows) {
      return Status::InvalidArgument(
          std::string("VectorizePairs: ") + (left ? "left" : "right") +
          " row " + std::to_string(row) + " out of range (" +
          std::to_string(table_rows) + " rows)");
    }
    ref.index_of[row] = 0;  // referenced; numbered below
  }
  for (size_t r = 0; r < table_rows; ++r) {
    if (ref.index_of[r] == kUnused) continue;
    ref.index_of[r] = static_cast<uint32_t>(ref.rows.size());
    ref.rows.push_back(static_cast<uint32_t>(r));
  }
  return ref;
}

// One side of a feature, resolved once. A prepared side holds either the
// whole column (lanes read it by table row) or just the referenced rows
// (lanes read it by index into ReferencedRows::rows).
struct BoundSide {
  const std::vector<Value>* values = nullptr;
  std::shared_ptr<const PreparedColumn> prep;  // null for value measures
  bool by_index = false;
};

// Binds one side of every feature. Each (column, prep spec) is prepped
// once per call over the referenced rows — or taken whole from the cache
// when a blocker or an earlier caller already prepped the full column.
Result<std::vector<BoundSide>> BindSide(const Table& table,
                                        const FeatureSet& features, bool left,
                                        const ReferencedRows& ref,
                                        PrepCache& cache,
                                        const ExecutorContext& ctx) {
  std::map<std::tuple<const void*, bool, bool, int>,
           std::shared_ptr<const PreparedColumn>>
      prepped;
  std::vector<BoundSide> sides;
  sides.reserve(features.features.size());
  for (const Feature& f : features.features) {
    BoundSide side;
    EMX_ASSIGN_OR_RETURN(side.values,
                         table.ColumnByName(left ? f.left_attr : f.right_attr));
    if (f.has_prep() && !ref.rows.empty()) {
      auto& prep = prepped[{side.values, f.prep.lowercase, f.prep.tokenize,
                            f.prep.qgram}];
      if (prep == nullptr) {
        std::unique_ptr<Tokenizer> tok = TokenizerForSpec(f.prep);
        PrepOptions opts{f.prep.lowercase, /*strip_punctuation=*/false};
        prep = cache.GetRows(*side.values, ref.rows, opts, tok.get(), ctx);
      }
      side.prep = prep;
      side.by_index = prep->rows() != side.values->size();
    }
    sides.push_back(std::move(side));
  }
  return sides;
}

}  // namespace

Result<PairBatch> VectorizePairsBatch(const Table& left, const Table& right,
                                      const CandidateSet& pairs,
                                      const FeatureSet& features,
                                      const ExecutorContext& ctx,
                                      PrepCache* cache) {
  PrepCache local_cache;
  PrepCache& prep_cache = cache != nullptr ? *cache : local_cache;
  EMX_ASSIGN_OR_RETURN(ReferencedRows lref,
                       Reference(pairs, /*left=*/true, left.num_rows()));
  EMX_ASSIGN_OR_RETURN(ReferencedRows rref,
                       Reference(pairs, /*left=*/false, right.num_rows()));
  EMX_ASSIGN_OR_RETURN(
      std::vector<BoundSide> lsides,
      BindSide(left, features, /*left=*/true, lref, prep_cache, ctx));
  EMX_ASSIGN_OR_RETURN(
      std::vector<BoundSide> rsides,
      BindSide(right, features, /*left=*/false, rref, prep_cache, ctx));

  const size_t width = features.features.size();
  PairBatch batch(pairs.size(), width);
  batch.feature_names = features.names();
  // Feature-major within each chunk: every feature scores the chunk's lanes
  // in one ScoreFeature call, writing its contiguous column slice. Chunks
  // are disjoint pair ranges, so any thread count writes the same cells
  // with the same values.
  ctx.get().ParallelFor(0, pairs.size(), /*grain=*/0, [&](size_t lo,
                                                          size_t hi) {
    // The chunk's table rows and their indices into the referenced rows,
    // reused across chunks on this thread.
    thread_local std::vector<uint32_t> lrows, rrows, lindex, rindex;
    lrows.clear();
    rrows.clear();
    lindex.clear();
    rindex.clear();
    for (size_t r = lo; r < hi; ++r) {
      lrows.push_back(pairs[r].left);
      rrows.push_back(pairs[r].right);
      lindex.push_back(lref.index_of[pairs[r].left]);
      rindex.push_back(rref.index_of[pairs[r].right]);
    }
    for (size_t i = 0; i < width; ++i) {
      const BoundSide& l = lsides[i];
      const BoundSide& r = rsides[i];
      ScoreFeature(features.features[i],
                   {l.values->data(), l.prep.get(),
                    (l.by_index ? lindex : lrows).data()},
                   {r.values->data(), r.prep.get(),
                    (r.by_index ? rindex : rrows).data()},
                   hi - lo, batch.Column(i) + lo);
    }
  });
  return batch;
}

Result<FeatureMatrix> VectorizePairs(const Table& left, const Table& right,
                                     const CandidateSet& pairs,
                                     const FeatureSet& features,
                                     const ExecutorContext& ctx,
                                     PrepCache* cache) {
  EMX_ASSIGN_OR_RETURN(
      PairBatch batch,
      VectorizePairsBatch(left, right, pairs, features, ctx, cache));
  return batch.ToMatrix();
}

void MeanImputer::Fit(const FeatureMatrix& matrix) {
  size_t w = matrix.num_features();
  means_.assign(w, 0.0);
  std::vector<size_t> counts(w, 0);
  for (const auto& row : matrix.rows) {
    for (size_t c = 0; c < w; ++c) {
      if (!std::isnan(row[c])) {
        means_[c] += row[c];
        ++counts[c];
      }
    }
  }
  for (size_t c = 0; c < w; ++c) {
    means_[c] = counts[c] > 0 ? means_[c] / static_cast<double>(counts[c]) : 0.0;
  }
}

void MeanImputer::Fit(const PairBatch& batch) {
  size_t w = batch.num_features();
  means_.assign(w, 0.0);
  for (size_t c = 0; c < w; ++c) {
    const double* col = batch.Column(c);
    double sum = 0.0;
    size_t count = 0;
    for (size_t i = 0; i < batch.num_pairs(); ++i) {
      if (!std::isnan(col[i])) {
        sum += col[i];
        ++count;
      }
    }
    means_[c] = count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
}

Status MeanImputer::Transform(FeatureMatrix& matrix) const {
  if (matrix.num_features() != means_.size()) {
    return Status::InvalidArgument(
        "MeanImputer: matrix width " + std::to_string(matrix.num_features()) +
        " != fitted width " + std::to_string(means_.size()));
  }
  for (auto& row : matrix.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (std::isnan(row[c])) row[c] = means_[c];
    }
  }
  return Status::OK();
}

Status MeanImputer::Transform(PairBatch& batch) const {
  if (batch.num_features() != means_.size()) {
    return Status::InvalidArgument(
        "MeanImputer: batch width " + std::to_string(batch.num_features()) +
        " != fitted width " + std::to_string(means_.size()));
  }
  for (size_t c = 0; c < batch.num_features(); ++c) {
    double* col = batch.Column(c);
    for (size_t i = 0; i < batch.num_pairs(); ++i) {
      if (std::isnan(col[i])) col[i] = means_[c];
    }
  }
  return Status::OK();
}

}  // namespace emx
