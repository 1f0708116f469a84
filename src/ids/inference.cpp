#include "ids/inference.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "util/contracts.h"

namespace canids::ids {

namespace {

/// Bit i (MSB-first) of a standard identifier as a double in {0,1}.
[[nodiscard]] double id_bit(std::uint32_t id, int bit, int width) noexcept {
  return static_cast<double>((id >> (width - 1 - bit)) & 1u);
}

/// Largest injected-set size considered: Table I tests up to four IDs, and
/// the active-set solver's scratch is sized for it.
constexpr std::size_t kMaxSet = 4;
/// A bit constrains candidates when |delta p_i| exceeds
/// max(kNoiseMultiplier * probability_range_i, kMinProbabilityShift).
constexpr double kNoiseMultiplier = 3.0;
constexpr double kMinProbabilityShift = 0.004;
/// Beam width of the multi-ID set search.
constexpr std::size_t kBeamWidth = 96;
/// Size of the reduced candidate pool fed to the beam search.
constexpr std::size_t kSearchPool = 96;
static_assert(kSearchPool >= kMaxSet);
/// How many of the best hypotheses per set size feed the marginal-evidence
/// ranking.
constexpr std::size_t kSetsPerSizeRanked = 12;
/// A residual bound no fit reaches: sum the residual in full.
constexpr double kNoBound = std::numeric_limits<double>::infinity();
/// Upper bound for the injected-traffic fraction lambda.
constexpr double kLambdaMax = 0.75;
/// Complexity penalty added per extra injected ID when estimating the set
/// size (keeps the fit from always preferring larger sets).
constexpr double kSizePenalty = 2e-4;
/// The set search fits a child in full, unbounded, when a Cholesky pivot²
/// of its parent's Gram block, or the child's own Schur complement, is
/// below this fraction of its diagonal entry: near-collinear patterns are
/// where the least-squares bound is ill-conditioned.
constexpr double kBoundGuard = 1e-4;
/// A child is skipped only when its bound clears the worst kept residual
/// by this fraction of (|delta| + kLambdaMax * max |pattern|)^2.
constexpr double kBoundMargin = 1e-6;

/// A partial injected-set hypothesis during beam search.
struct Hypothesis {
  /// Members as positions in the (ascending) search pool, ascending.
  std::array<std::size_t, kMaxSet> members{};
  std::size_t size = 0;
  std::array<double, kMaxSet> weights{};  // fitted per-ID traffic fractions
  double residual = 0.0;
  double lambda = 0.0;
  /// Order in which the search generated it: breaks residual ties the way
  /// a stable sort of every child would.
  std::size_t arrival = 0;
};

/// Strict (residual, arrival) order: the earlier of two equal fits wins.
[[nodiscard]] bool fits_better(const Hypothesis& a,
                               const Hypothesis& b) noexcept {
  if (a.residual != b.residual) return a.residual < b.residual;
  return a.arrival < b.arrival;
}

/// Sum of a[i] * b[i] over the first `dims` entries, in index order.
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t dims) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < dims; ++i) sum += a[i] * b[i];
  return sum;
}

/// The inputs of one least-squares fit: each member's pattern, the
/// pattern-pattern dot products and the pattern-delta dot products.
struct FitInput {
  std::size_t k = 0;
  std::array<const double*, kMaxSet> patterns{};
  double gram[kMaxSet][kMaxSet] = {};
  std::array<double, kMaxSet> rhs{};
};

struct FitOutput {
  std::array<double, kMaxSet> weights{};
  double lambda = 0.0;
  double residual = 0.0;
};

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<const GoldenTemplate> golden,
                                 std::vector<std::uint32_t> id_pool,
                                 InferenceConfig config)
    : golden_(std::move(golden)),
      id_pool_(std::move(id_pool)),
      config_(config) {
  CANIDS_EXPECTS(golden_ != nullptr);
  CANIDS_EXPECTS(!id_pool_.empty());
  CANIDS_EXPECTS(config_.rank > 0);
  std::sort(id_pool_.begin(), id_pool_.end());
  id_pool_.erase(std::unique(id_pool_.begin(), id_pool_.end()),
                 id_pool_.end());

  // Precompute each candidate's centered feature pattern against the
  // template: marginal part (bit_i - p̄_i), then — when the template carries
  // pair statistics — the co-occurrence part (bit_i*bit_j - q̄_ij).
  const auto width = static_cast<std::size_t>(golden_->width);
  const std::size_t pairs =
      golden_->has_pairs()
          ? static_cast<std::size_t>(pair_count(golden_->width))
          : 0;
  patterns_.resize(id_pool_.size());
  for (std::size_t n = 0; n < id_pool_.size(); ++n) {
    std::vector<double>& pattern = patterns_[n];
    pattern.resize(width + pairs);
    const std::uint32_t id = id_pool_[n];
    for (std::size_t b = 0; b < width; ++b) {
      pattern[b] = id_bit(id, static_cast<int>(b), golden_->width) -
                   golden_->mean_probability[b];
    }
    if (pairs > 0) {
      for (int i = 0; i < golden_->width - 1; ++i) {
        const double bi = id_bit(id, i, golden_->width);
        for (int j = i + 1; j < golden_->width; ++j) {
          const auto idx =
              static_cast<std::size_t>(pair_index(i, j, golden_->width));
          pattern[width + idx] =
              bi * id_bit(id, j, golden_->width) -
              golden_->mean_pair_probability[idx];
        }
      }
    }
  }
}

InferenceEngine::InferenceEngine(GoldenTemplate golden,
                                 std::vector<std::uint32_t> id_pool,
                                 InferenceConfig config)
    : InferenceEngine(std::make_shared<const GoldenTemplate>(std::move(golden)),
                      std::move(id_pool), config) {}

std::vector<BitConstraint> InferenceEngine::derive_constraints(
    const std::vector<double>& delta_p) const {
  std::vector<BitConstraint> constraints;
  for (int i = 0; i < golden_->width; ++i) {
    const auto b = static_cast<std::size_t>(i);
    const double noise =
        std::max(kNoiseMultiplier * golden_->probability_range(i),
                 kMinProbabilityShift);
    if (std::abs(delta_p[b]) > noise) {
      constraints.push_back(BitConstraint{i, delta_p[b] > 0.0, delta_p[b]});
    }
  }
  return constraints;
}

bool InferenceEngine::satisfies(std::uint32_t id,
                                const std::vector<BitConstraint>& cs) const {
  for (const BitConstraint& c : cs) {
    const bool bit =
        ((id >> (golden_->width - 1 - c.bit)) & 1u) != 0;
    if (bit != c.injected_bit) return false;
  }
  return true;
}

InferenceResult InferenceEngine::infer(const WindowSnapshot& window) const {
  CANIDS_EXPECTS(window.width() == golden_->width);
  const auto width = static_cast<std::size_t>(golden_->width);
  const bool use_pairs = golden_->has_pairs() && window.has_pairs();
  const std::size_t pairs =
      use_pairs ? static_cast<std::size_t>(pair_count(golden_->width)) : 0;
  const std::size_t dims = width + pairs;

  // ---- Observation vector: marginal shifts, then pair shifts --------------
  std::vector<double> delta(dims);
  std::vector<double> delta_p(width);
  for (std::size_t b = 0; b < width; ++b) {
    delta_p[b] = window.probabilities[b] - golden_->mean_probability[b];
    delta[b] = delta_p[b];
  }
  if (use_pairs) {
    CANIDS_EXPECTS(window.pair_probabilities.size() == pairs);
    for (std::size_t idx = 0; idx < pairs; ++idx) {
      delta[width + idx] =
          window.pair_probabilities[idx] - golden_->mean_pair_probability[idx];
    }
  }

  InferenceResult result;
  result.constraints = derive_constraints(delta_p);

  // ---- Least-squares fit ------------------------------------------------------
  // Model: injecting pool entries S with per-ID traffic fractions w_j >= 0
  // shifts every tracked statistic linearly:
  //   delta  ~=  sum_j w_j * pattern(x_j).
  // Per-ID weights (not one shared lambda) matter because a saturated bus
  // drops lower-priority members of S more often. Solved as a small
  // non-negative least squares via active-set elimination (k <= 4). The
  // normal equations read their dot products from caches filled once per
  // call; a product is the same double whichever order it is taken in.
  // The residual stops summing once it reaches `bound`: every addend is
  // >= 0, so the full sum could only be larger, and the caller drops a fit
  // that does not beat `bound`.
  auto fit = [&](const FitInput& in, double bound) {
    const std::size_t k = in.k;
    std::array<bool, kMaxSet> active{};
    std::fill_n(active.begin(), k, true);
    FitOutput out;
    std::array<double, kMaxSet>& w = out.weights;
    for (std::size_t pass = 0; pass <= k; ++pass) {
      std::array<std::size_t, kMaxSet> idx{};
      std::size_t m = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (active[j]) idx[m++] = j;
      }
      if (m == 0) break;
      // Normal equations over active members, ridge-stabilised.
      double a[kMaxSet][kMaxSet + 1] = {};
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < m; ++c) {
          a[r][c] = in.gram[idx[r]][idx[c]] + (r == c ? 1e-9 : 0.0);
        }
        a[r][m] = in.rhs[idx[r]];
      }
      // Gaussian elimination with partial pivoting (m <= 4).
      for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < m; ++row) {
          if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
        }
        for (std::size_t c2 = 0; c2 <= m; ++c2) {
          std::swap(a[col][c2], a[pivot][c2]);
        }
        if (std::abs(a[col][col]) < 1e-12) continue;
        for (std::size_t row = col + 1; row < m; ++row) {
          const double factor = a[row][col] / a[col][col];
          for (std::size_t c2 = col; c2 <= m; ++c2) {
            a[row][c2] -= factor * a[col][c2];
          }
        }
      }
      double solution[kMaxSet] = {};
      for (std::size_t row = m; row-- > 0;) {
        double value = a[row][m];
        for (std::size_t c2 = row + 1; c2 < m; ++c2) {
          value -= a[row][c2] * solution[c2];
        }
        solution[row] =
            std::abs(a[row][row]) < 1e-12 ? 0.0 : value / a[row][row];
      }
      // Clamp negative weights out of the active set and re-solve.
      bool clamped = false;
      for (std::size_t r = 0; r < m; ++r) {
        if (solution[r] < 0.0) {
          active[idx[r]] = false;
          clamped = true;
        } else {
          w[idx[r]] = solution[r];
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (!active[j]) w[j] = 0.0;
      }
      if (!clamped) break;
    }

    double total = 0.0;
    for (std::size_t j = 0; j < k; ++j) total += w[j];
    if (total > kLambdaMax && total > 0.0) {
      const double scale = kLambdaMax / total;
      for (std::size_t j = 0; j < k; ++j) w[j] *= scale;
      total = kLambdaMax;
    }

    out.lambda = total;
    double residual = 0.0;
    for (std::size_t b = 0; b < dims; ++b) {
      double predicted = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        predicted += w[j] * in.patterns[j][b];
      }
      const double r = delta[b] - predicted;
      residual += r * r;
      if (residual >= bound) break;
    }
    // Members fitted to ~zero weight contribute nothing but still occupy a
    // set slot; penalise them so leaner sets win ties.
    for (std::size_t j = 0; j < k; ++j) {
      if (w[j] < 1e-4) residual += kSizePenalty;
    }
    out.residual = residual;
    return out;
  };

  // pattern . delta for every pool member, and pattern . pattern for the
  // singleton fits.
  const std::size_t pool_size = id_pool_.size();
  std::vector<double> pattern_delta(pool_size);
  std::vector<double> pattern_norm(pool_size);
  for (std::size_t n = 0; n < pool_size; ++n) {
    const double* pattern = patterns_[n].data();
    pattern_delta[n] = dot(pattern, delta.data(), dims);
    pattern_norm[n] = dot(pattern, pattern, dims);
  }

  // ---- Reduced candidate pool ---------------------------------------------
  // Order every pool ID by how well it explains the shift on its own (the
  // singleton fit uses the pairwise statistics too, unlike the plain
  // alignment score), then keep the strongest plus all constraint-
  // satisfying candidates, capped at kSearchPool.
  std::vector<std::pair<double, std::size_t>> singles;
  singles.reserve(pool_size);
  for (std::size_t n = 0; n < pool_size; ++n) {
    FitInput in;
    in.k = 1;
    in.patterns[0] = patterns_[n].data();
    in.gram[0][0] = pattern_norm[n];
    in.rhs[0] = pattern_delta[n];
    singles.emplace_back(fit(in, kNoBound).residual, n);
  }
  std::stable_sort(singles.begin(), singles.end());

  std::vector<std::size_t> search_pool;
  std::vector<bool> in_pool(pool_size, false);
  auto add_to_pool = [&](std::size_t n) {
    if (search_pool.size() >= kSearchPool) return;
    if (!in_pool[n]) {
      in_pool[n] = true;
      search_pool.push_back(n);
    }
  };
  // Constraint-satisfying IDs get priority only when the constraints are
  // informative; an empty constraint set matches everything and must not
  // crowd the pool with low-valued IDs.
  if (!result.constraints.empty()) {
    for (std::size_t n = 0; n < pool_size; ++n) {
      if (satisfies(id_pool_[n], result.constraints)) add_to_pool(n);
    }
  }
  for (const auto& [residual, n] : singles) add_to_pool(n);
  std::sort(search_pool.begin(), search_pool.end());

  // pattern . pattern for every pair of search-pool members: at most
  // kSearchPool^2 doubles, whatever the size of the legal ID pool.
  const std::size_t pool_span = search_pool.size();
  std::vector<double> gram(pool_span * pool_span);
  for (std::size_t r = 0; r < pool_span; ++r) {
    const double* pr = patterns_[search_pool[r]].data();
    gram[r * pool_span + r] = pattern_norm[search_pool[r]];
    for (std::size_t c = r + 1; c < pool_span; ++c) {
      const double g = dot(pr, patterns_[search_pool[c]].data(), dims);
      gram[r * pool_span + c] = g;
      gram[c * pool_span + r] = g;
    }
  }

  // ---- Least-squares bound on a child's residual ---------------------------
  // For a set S, min over real weights of |delta - sum_j w_j pattern_j|^2 is
  // |delta|^2 - r_S' G_SS^-1 r_S (r = pattern . delta, G = gram). fit's
  // weights are one choice of real weights (non-negative, lambda-clamped,
  // ridged) and its size penalty only adds, so this minimum bounds fit's
  // residual from below. Per parent P, with L the Cholesky factor of G_PP
  // and z = L^-1 r_P, the parent's own minimum is rho_P = |delta|^2 - |z|^2;
  // a child P + {c} then costs y = L^-1 G_Pc, s = G_cc - |y|^2,
  // t = r_c - y . z and rho = rho_P - t^2 / s.
  //
  // Rounding: rho need not be accurate, only not above the residual fit
  // computes. The Gram dot products, the Cholesky factor, the triangular
  // solves and the sums are backward stable, so the computed rho is the
  // exact minimum for a Gram block, r and |delta|^2 perturbed by a few
  // dozen ulps of |p_i| |p_j|, |p_i| |delta| and |delta|^2. That minimum is
  // at most the perturbed residual at fit's own weights, and those satisfy
  // w >= 0 and sum w <= kLambdaMax, so rho exceeds the residual at fit's
  // weights by under 1e-13 R^2, R = |delta| + kLambdaMax * max |pattern|.
  // fit's in-order sum of <= 66 squares of a residual vector of norm <= R
  // errs by as little. The guards keep every pivot clear of zero, so these
  // first-order terms dominate. A margin of kBoundMargin * R^2 covers both
  // many times over: a skipped child's fit would have reached the worst
  // kept residual, and fit would have returned it rejected.
  const double delta_norm2 = dot(delta.data(), delta.data(), dims);
  double max_pattern_norm2 = 0.0;
  for (std::size_t n : search_pool) {
    max_pattern_norm2 = std::max(max_pattern_norm2, pattern_norm[n]);
  }
  const double bound_scale =
      std::sqrt(delta_norm2) + kLambdaMax * std::sqrt(max_pattern_norm2);
  const double margin = kBoundMargin * bound_scale * bound_scale;

  // The parent's factor: L (lower triangle), z and rho_P. `usable` is
  // false when a pivot fails the guard; its children then fit in full.
  struct ParentFactor {
    double l[kMaxSet][kMaxSet] = {};
    std::array<double, kMaxSet> z{};
    double rho = 0.0;
    bool usable = true;
  };
  auto factor_parent = [&](const Hypothesis& h) {
    ParentFactor f;
    const std::size_t m = h.size;
    double explained = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = &gram[h.members[i] * pool_span];
      for (std::size_t j = 0; j < i; ++j) {
        double v = row[h.members[j]];
        for (std::size_t q = 0; q < j; ++q) v -= f.l[i][q] * f.l[j][q];
        f.l[i][j] = v / f.l[j][j];
      }
      double pivot2 = row[h.members[i]];
      for (std::size_t q = 0; q < i; ++q) pivot2 -= f.l[i][q] * f.l[i][q];
      if (!(pivot2 > kBoundGuard * row[h.members[i]])) {
        f.usable = false;
        return f;
      }
      f.l[i][i] = std::sqrt(pivot2);
      double v = pattern_delta[search_pool[h.members[i]]];
      for (std::size_t q = 0; q < i; ++q) v -= f.l[i][q] * f.z[q];
      f.z[i] = v / f.l[i][i];
      explained += f.z[i] * f.z[i];
    }
    f.rho = delta_norm2 - explained;
    return f;
  };
  // Whether fit is sure to reject child P + {c} against a full beam whose
  // worst kept residual is `worst`.
  auto ruled_out = [&](const Hypothesis& h, const ParentFactor& f,
                       std::size_t c, double worst) {
    const std::size_t m = h.size;
    std::array<double, kMaxSet> y{};
    const double diag = gram[c * pool_span + c];
    double s = diag;
    double t = pattern_delta[search_pool[c]];
    for (std::size_t i = 0; i < m; ++i) {
      double v = gram[h.members[i] * pool_span + c];
      for (std::size_t q = 0; q < i; ++q) v -= f.l[i][q] * y[q];
      y[i] = v / f.l[i][i];
      s -= y[i] * y[i];
      t -= y[i] * f.z[i];
    }
    if (!(s > kBoundGuard * diag)) return false;
    return f.rho - t * t / s - margin >= worst;
  };

  // ---- Beam search over set sizes -------------------------------------------
  // Each set size keeps the kBeamWidth children that fit best by
  // (residual, arrival), exactly what a stable sort of all of them would
  // keep, in a max-heap with the worst kept child on top; no set size
  // materialises its children. Once a size's heap is full, a child whose
  // least-squares bound already reaches the worst kept residual is skipped
  // unfitted; any other child stops fitting once its residual reaches it,
  // and a tie goes to the earlier arrival. Only kept children take an
  // arrival, so skipping changes neither the kept sets nor their order.
  std::vector<Hypothesis> beam;
  std::vector<Hypothesis> next;  // max-heap under fits_better
  beam.reserve(kBeamWidth);
  next.reserve(kBeamWidth);
  std::vector<Hypothesis> best_per_size;  // best hypothesis of each size
  std::vector<Hypothesis> top_sets;       // several best per size
  std::size_t arrivals = 0;
  auto offer = [&](Hypothesis& h) {
    const bool full = next.size() == kBeamWidth;
    FitInput in;
    in.k = h.size;
    for (std::size_t r = 0; r < h.size; ++r) {
      const std::size_t n = search_pool[h.members[r]];
      in.patterns[r] = patterns_[n].data();
      in.rhs[r] = pattern_delta[n];
      for (std::size_t c = 0; c < h.size; ++c) {
        in.gram[r][c] = gram[h.members[r] * pool_span + h.members[c]];
      }
    }
    const FitOutput out = fit(in, full ? next.front().residual : kNoBound);
    if (full) {
      if (!(out.residual < next.front().residual)) return;
      std::pop_heap(next.begin(), next.end(), fits_better);
      next.pop_back();
    }
    h.weights = out.weights;
    h.lambda = out.lambda;
    h.residual = out.residual;
    h.arrival = arrivals++;
    next.push_back(h);
    std::push_heap(next.begin(), next.end(), fits_better);
  };
  // Close one set size: `next`, best first, becomes the beam, and its head
  // feeds the set-size choice and the ranking.
  auto close_level = [&] {
    std::sort_heap(next.begin(), next.end(), fits_better);
    std::swap(beam, next);
    next.clear();
    if (beam.empty()) return;
    best_per_size.push_back(beam.front());
    const auto take = std::min(beam.size(), kSetsPerSizeRanked);
    top_sets.insert(top_sets.end(), beam.begin(),
                    beam.begin() + static_cast<std::ptrdiff_t>(take));
  };
  auto id_at = [&](const Hypothesis& h, std::size_t j) {
    return id_pool_[search_pool[h.members[j]]];
  };

  for (std::size_t pi = 0; pi < pool_span; ++pi) {
    Hypothesis h;
    h.members[0] = pi;
    h.size = 1;
    offer(h);
  }
  close_level();

  for (std::size_t k = 2; k <= kMaxSet && !beam.empty(); ++k) {
    for (const Hypothesis& h : beam) {
      const ParentFactor factor = factor_parent(h);
      for (std::size_t pi = h.members[h.size - 1] + 1; pi < pool_span; ++pi) {
        if (factor.usable && next.size() == kBeamWidth &&
            ruled_out(h, factor, pi, next.front().residual)) {
          continue;
        }
        Hypothesis grown = h;
        grown.members[grown.size++] = pi;
        offer(grown);
      }
    }
    close_level();
  }

  // ---- Choose the set size by penalised residual ----------------------------
  if (!best_per_size.empty()) {
    std::size_t best_index = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < best_per_size.size(); ++s) {
      const double score =
          best_per_size[s].residual +
          kSizePenalty * static_cast<double>(best_per_size[s].size);
      if (score < best_score) {
        best_score = score;
        best_index = s;
      }
    }
    const Hypothesis& chosen = best_per_size[best_index];
    for (std::size_t j = 0; j < chosen.size; ++j) {
      result.best_set.push_back(id_at(chosen, j));
    }
    result.estimated_num_ids = static_cast<int>(chosen.size);
    result.estimated_injection_fraction = chosen.lambda;
    result.fit_residual = chosen.residual;
  }

  // ---- Rank selection ---------------------------------------------------------
  // Rank identifiers by their marginal evidence across all harvested
  // hypotheses: every good fit that includes an ID with substantial fitted
  // weight votes for it, weighted by fit quality. Ties resolve by ascending
  // ID — the paper's priority order.
  std::map<std::uint32_t, double> marginal;
  if (!top_sets.empty()) {
    double best_residual = top_sets.front().residual;
    for (const Hypothesis& h : top_sets) {
      best_residual = std::min(best_residual, h.residual);
    }
    const double scale = std::max(best_residual, 1e-8);
    for (const Hypothesis& h : top_sets) {
      const double quality = std::exp(-(h.residual - best_residual) / scale);
      for (std::size_t j = 0; j < h.size; ++j) {
        marginal[id_at(h, j)] +=
            quality * (1e-3 + std::max(h.weights[j], 0.0));
      }
    }
  }
  std::vector<std::pair<double, std::uint32_t>> by_evidence;
  by_evidence.reserve(marginal.size());
  for (const auto& [id, evidence] : marginal) {
    by_evidence.emplace_back(evidence, id);
  }
  std::stable_sort(by_evidence.begin(), by_evidence.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;  // ascending ID on ties
                   });

  std::vector<std::uint32_t> ranked;
  std::set<std::uint32_t> taken;
  auto push = [&](std::uint32_t id) {
    if (static_cast<int>(ranked.size()) >= config_.rank) return;
    if (taken.insert(id).second) ranked.push_back(id);
  };
  for (const auto& [evidence, id] : by_evidence) push(id);
  // Fallback fillers: the paper's constraint-satisfying IDs in ascending
  // order (when the constraints say anything), then the best singleton fits.
  if (!result.constraints.empty()) {
    for (std::uint32_t id : id_pool_) {
      if (satisfies(id, result.constraints)) push(id);
    }
  }
  for (const auto& [residual, n] : singles) push(id_pool_[n]);
  result.ranked_candidates = std::move(ranked);
  return result;
}

double inference_hit_fraction(
    const std::vector<std::uint32_t>& true_ids,
    const std::vector<std::uint32_t>& ranked_candidates) {
  if (true_ids.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::uint32_t id : true_ids) {
    if (std::find(ranked_candidates.begin(), ranked_candidates.end(), id) !=
        ranked_candidates.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(true_ids.size());
}

}  // namespace canids::ids
