#include "src/feature/vectorizer.h"

#include <cmath>
#include <cstdint>
#include <memory>

#include "src/text/tokenizer.h"

namespace emx {

std::unique_ptr<Tokenizer> TokenizerForSpec(const FeaturePrepSpec& spec) {
  if (!spec.tokenize) return nullptr;
  if (spec.qgram > 0) return std::make_unique<QgramTokenizer>(spec.qgram);
  return std::make_unique<WhitespaceTokenizer>();
}

namespace {

// Attribute columns a feature reads, resolved once; features with prep bind
// to PreparedColumns built once per (column, prep spec) — each record is
// prepped a single time no matter how many pairs it appears in.
struct Bound {
  const std::vector<Value>* lcol;
  const std::vector<Value>* rcol;
  std::shared_ptr<const PreparedColumn> lprep;  // null for value measures
  std::shared_ptr<const PreparedColumn> rprep;
};

Result<std::vector<Bound>> BindFeatures(const Table& left, const Table& right,
                                        const FeatureSet& features,
                                        PrepCache& prep_cache) {
  std::vector<Bound> bound;
  bound.reserve(features.features.size());
  for (const Feature& f : features.features) {
    EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                         left.ColumnByName(f.left_attr));
    EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                         right.ColumnByName(f.right_attr));
    Bound b{lcol, rcol, nullptr, nullptr};
    if (f.has_prep()) {
      std::unique_ptr<Tokenizer> tok = TokenizerForSpec(f.prep);
      PrepOptions opts{f.prep.lowercase, /*strip_punctuation=*/false};
      b.lprep = prep_cache.Get(*lcol, opts, tok.get());
      b.rprep = prep_cache.Get(*rcol, opts, tok.get());
    }
    bound.push_back(std::move(b));
  }
  return bound;
}

}  // namespace

Result<PairBatch> VectorizePairsBatch(const Table& left, const Table& right,
                                      const CandidateSet& pairs,
                                      const FeatureSet& features,
                                      const ExecutorContext& ctx,
                                      PrepCache* cache) {
  PrepCache local_cache;
  PrepCache& prep_cache = cache != nullptr ? *cache : local_cache;
  EMX_ASSIGN_OR_RETURN(std::vector<Bound> bound,
                       BindFeatures(left, right, features, prep_cache));

  const size_t width = features.features.size();
  PairBatch batch(pairs.size(), width);
  batch.feature_names = features.names();
  // Feature-major within each chunk: every feature scores the chunk's lanes
  // in one ScoreFeature call, writing its contiguous column slice. Chunks
  // are disjoint pair ranges, so any thread count writes the same cells
  // with the same values.
  ctx.get().ParallelFor(0, pairs.size(), /*grain=*/0, [&](size_t lo,
                                                          size_t hi) {
    // The chunk's row indices, reused across chunks on this thread.
    thread_local std::vector<uint32_t> lrows, rrows;
    lrows.clear();
    rrows.clear();
    for (size_t r = lo; r < hi; ++r) {
      lrows.push_back(pairs[r].left);
      rrows.push_back(pairs[r].right);
    }
    for (size_t i = 0; i < width; ++i) {
      const Bound& b = bound[i];
      ScoreFeature(features.features[i],
                   {b.lcol->data(), b.lprep.get(), lrows.data()},
                   {b.rcol->data(), b.rprep.get(), rrows.data()}, hi - lo,
                   batch.Column(i) + lo);
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
