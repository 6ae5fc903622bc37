#include "core/dtopl_detector.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "influence/diversity.h"

namespace topl {

namespace {

// Number of L-subsets of nc candidates, saturating at `cap`.
std::uint64_t BinomialCapped(std::uint64_t nc, std::uint64_t l, std::uint64_t cap) {
  if (l > nc) return 0;
  l = std::min(l, nc - l);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= l; ++i) {
    // result *= (nc - l + i) / i, with overflow saturation.
    const std::uint64_t numer = nc - l + i;
    if (result > cap * i / numer + 1) return cap + 1;
    result = result * numer / i;
    if (result > cap) return cap + 1;
  }
  return result;
}

}  // namespace

double DiversityOfSelection(std::span<const CommunityResult> candidates,
                            std::span<const std::size_t> selection) {
  DiversityOracle oracle;
  for (std::size_t idx : selection) {
    TOPL_DCHECK(idx < candidates.size(), "selection index out of range");
    oracle.Add(candidates[idx].influence);
  }
  return oracle.TotalScore();
}

std::vector<std::size_t> SelectDiversifiedGreedyWP(
    std::span<const CommunityResult> candidates, std::uint32_t top_l,
    std::uint64_t* gain_evaluations) {
  std::vector<std::size_t> selection;
  if (candidates.empty() || top_l == 0) return selection;

  // Heap entries carry the round at which their key was computed. By
  // submodularity a key computed at an earlier (smaller) selection is an
  // upper bound on the current gain (Lemma 9), so when the top entry's stamp
  // is current it is the exact argmax and every other candidate is pruned
  // without evaluation.
  struct Entry {
    double key;
    std::size_t candidate;
    std::uint32_t round;
    bool operator<(const Entry& other) const { return key < other.key; }
  };
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    // ΔD(∅) = σ(g): the influential score, already computed.
    heap.push({candidates[i].score(), i, 0});
  }

  DiversityOracle oracle;
  std::uint32_t round = 0;
  std::uint64_t evaluations = 0;
  while (selection.size() < top_l && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round == round) {
      oracle.Add(candidates[top.candidate].influence);
      selection.push_back(top.candidate);
      ++round;
    } else {
      top.key = oracle.MarginalGain(candidates[top.candidate].influence);
      ++evaluations;
      top.round = round;
      heap.push(top);
    }
  }
  if (gain_evaluations != nullptr) *gain_evaluations = evaluations;
  return selection;
}

std::vector<std::size_t> SelectDiversifiedGreedyWoP(
    std::span<const CommunityResult> candidates, std::uint32_t top_l,
    std::uint64_t* gain_evaluations) {
  std::vector<std::size_t> selection;
  std::vector<char> used(candidates.size(), 0);
  DiversityOracle oracle;
  std::uint64_t evaluations = 0;
  while (selection.size() < top_l) {
    double best_gain = -1.0;
    std::size_t best_idx = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const double gain = oracle.MarginalGain(candidates[i].influence);
      ++evaluations;
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size()) break;  // pool exhausted
    used[best_idx] = 1;
    oracle.Add(candidates[best_idx].influence);
    selection.push_back(best_idx);
  }
  if (gain_evaluations != nullptr) *gain_evaluations = evaluations;
  return selection;
}

Result<std::vector<std::size_t>> SelectDiversifiedOptimal(
    std::span<const CommunityResult> candidates, std::uint32_t top_l,
    std::uint64_t max_subsets) {
  const std::size_t nc = candidates.size();
  const std::uint32_t l = static_cast<std::uint32_t>(
      std::min<std::size_t>(top_l, nc));
  if (l == 0) return std::vector<std::size_t>{};
  if (BinomialCapped(nc, l, max_subsets) > max_subsets) {
    return Status::InvalidArgument(
        "optimal DTopL enumeration would exceed max_subsets; reduce the "
        "candidate pool or L");
  }

  // Plain lexicographic combination walk.
  std::vector<std::size_t> combo(l);
  for (std::uint32_t i = 0; i < l; ++i) combo[i] = i;
  std::vector<std::size_t> best = combo;
  double best_score = DiversityOfSelection(candidates, combo);
  for (;;) {
    // Advance to the next combination.
    int pos = static_cast<int>(l) - 1;
    while (pos >= 0 && combo[pos] == nc - l + pos) --pos;
    if (pos < 0) break;
    ++combo[pos];
    for (std::size_t j = pos + 1; j < l; ++j) combo[j] = combo[j - 1] + 1;

    const double score = DiversityOfSelection(candidates, combo);
    if (score > best_score) {
      best_score = score;
      best = combo;
    }
  }
  return best;
}

DTopLDetector::DTopLDetector(const Graph& g, const PrecomputedData& pre,
                             const TreeIndex& tree,
                             std::shared_ptr<RefineScratchPool> scratch)
    : topl_(g, pre, tree, std::move(scratch)) {}

Result<DTopLResult> DTopLDetector::Search(const Query& query,
                                          const DTopLOptions& options) {
  return Search(query, options, SearchControl{});
}

Result<DTopLResult> DTopLDetector::Search(const Query& query,
                                          const DTopLOptions& options,
                                          const SearchControl& control) {
  if (options.n_factor < 1) {
    return Status::InvalidArgument("n_factor must be >= 1");
  }

  // Phase 1: top-(nL) most influential candidates via Algorithm 3, run
  // under the caller's controls (parallel scoring, deadline, cancellation).
  Timer candidate_timer;
  Query pool_query = query;
  pool_query.top_l = query.top_l * options.n_factor;

  SearchControl phase1 = control;
  if (control.on_progress) {
    // Progressive DTopL: after every candidate wave, re-run the (cheap)
    // greedy selection over the pool so far, so the caller watches the
    // *diversified* answer converge, not the raw candidate pool. The
    // selection is L out of ≤ nL communities via the configured greedy
    // variant — negligible next to the wave's extraction + propagation
    // cost. For kOptimal the stream is a Greedy_WP *preview* (exhaustive
    // enumeration per wave would dwarf the search itself); only the final
    // returned answer is the optimal selection.
    phase1.on_progress = [&query, &options,
                          &control](const ProgressiveUpdate& update) {
      std::vector<std::size_t> selection =
          options.algorithm == DTopLAlgorithm::kGreedyWithoutPruning
              ? SelectDiversifiedGreedyWoP(update.communities, query.top_l,
                                           nullptr)
              : SelectDiversifiedGreedyWP(update.communities, query.top_l,
                                          nullptr);
      std::vector<CommunityResult> selected;
      selected.reserve(selection.size());
      for (std::size_t idx : selection) {
        selected.push_back(update.communities[idx]);
      }
      SortCommunityResults(&selected);
      ProgressiveUpdate diversified = update;
      diversified.communities = selected;
      return control.on_progress(diversified);
    };
  }

  Result<TopLResult> pool = topl_.Search(pool_query, options.topl_options, phase1);
  if (!pool.ok()) return pool.status();

  DTopLResult result;
  result.truncated = pool.value().truncated;
  result.score_upper_bound = pool.value().score_upper_bound;
  result.candidate_stats = pool.value().stats;
  result.candidate_seconds = candidate_timer.ElapsedSeconds();
  result.pool_centers.reserve(pool.value().communities.size());
  for (const CommunityResult& c : pool.value().communities) {
    result.pool_centers.push_back(c.community.center);
  }
  if (!pool.value().communities.empty()) {
    result.pool_floor = pool.value().communities.back().score();
  }
  result.pool_full = pool.value().communities.size() >= pool_query.top_l;

  // Phase 2: refinement.
  Timer refine_timer;
  const std::vector<CommunityResult>& candidates = pool.value().communities;
  std::vector<std::size_t> selection;
  switch (options.algorithm) {
    case DTopLAlgorithm::kGreedyWithPruning:
      selection = SelectDiversifiedGreedyWP(candidates, query.top_l,
                                            &result.gain_evaluations);
      break;
    case DTopLAlgorithm::kGreedyWithoutPruning:
      selection = SelectDiversifiedGreedyWoP(candidates, query.top_l,
                                             &result.gain_evaluations);
      break;
    case DTopLAlgorithm::kOptimal: {
      Result<std::vector<std::size_t>> optimal = SelectDiversifiedOptimal(
          candidates, query.top_l, options.max_optimal_subsets);
      if (!optimal.ok()) return optimal.status();
      selection = std::move(optimal).value();
      break;
    }
  }
  result.diversity_score = DiversityOfSelection(candidates, selection);
  result.communities.reserve(selection.size());
  for (std::size_t idx : selection) {
    result.communities.push_back(candidates[idx]);
  }
  result.refine_seconds = refine_timer.ElapsedSeconds();
  return result;
}

}  // namespace topl
