#pragma once
// Common interface for the Byzantine-robust aggregation rules of Table II.
//
// A rule consumes the flat parameter vectors collected by a cluster leader
// (Algorithm 4's AG) and produces the cluster's partial aggregated model.
// Rules are stateless except where the literature requires a reference point
// (Centered Clipping), which the runner supplies via set_reference() with
// the previous round's model.

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace abdhfl::agg {

using ModelVec = std::vector<float>;

/// Per-input attribution of one aggregate() call, for the forensics layer:
/// did this input survive the rule's filter, with what contribution weight,
/// and at what rule-specific distance/score.  Weights sum to ~1 across kept
/// inputs (0 for filtered ones); score is 0 where the rule has no natural
/// notion of distance.
struct InputVerdict {
  bool kept = true;
  double weight = 0.0;
  double score = 0.0;
};

/// What the most recent aggregate() call did to its inputs, for the
/// observability layer: how many updates were offered, how many actually
/// contributed to the output, and a rule-specific distance/score statistic
/// (Krum scores, norm-filter distances, clip norms — 0 where the rule has no
/// natural notion of distance).  "Filtered" is inputs - kept.
///
/// `verdicts` is aligned with the input order of the aggregate() call and is
/// only filled when forensics is enabled (see Aggregator::set_forensics);
/// otherwise it stays empty.  When filled, the number of kept verdicts
/// equals `kept`.
struct AggTelemetry {
  std::size_t inputs = 0;
  std::size_t kept = 0;
  double score_mean = 0.0;
  double score_max = 0.0;
  std::vector<InputVerdict> verdicts;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Aggregate the given model vectors (all the same dimension; at least
  /// one).  Throws std::invalid_argument on empty input or ragged dims.
  [[nodiscard]] virtual ModelVec aggregate(const std::vector<ModelVec>& updates) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Reference point for rules that need one (previous global/partial
  /// model).  Default: ignored.
  virtual void set_reference(std::span<const float> reference) { (void)reference; }

  /// Fraction of Byzantine inputs this rule is designed to tolerate, used
  /// by the tolerance analysis as γ.  Rules without a crisp bound return 0.5
  /// (median-type rules break down at one half).
  [[nodiscard]] virtual double tolerance_fraction(std::size_t n) const {
    (void)n;
    return 0.5;
  }

  /// Numeric-kernel fan-out inside aggregate().  1 (the default) keeps the
  /// rule single-threaded so the discrete-event simulator stays serial and
  /// deterministic; higher values partition the work (pairwise-distance
  /// rows, coordinates, updates) across util::global_pool().  Every rule's
  /// parallel path is bitwise-identical to its serial path for any thread
  /// count — each output element is produced by exactly one kernel call
  /// chain, so the partition never changes the arithmetic.
  void set_threads(std::size_t threads) noexcept {
    threads_ = threads == 0 ? 1 : threads;
  }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Telemetry of the most recent aggregate() call on this instance.  Not
  /// synchronized: read it from the thread that called aggregate() (the
  /// runners drive each rule instance from a single thread).
  [[nodiscard]] const AggTelemetry& last_telemetry() const noexcept {
    return telemetry_;
  }

  /// Enable per-input verdict recording (AggTelemetry::verdicts).  Off by
  /// default: verdict extraction can cost extra O(n·d) passes in rules whose
  /// aggregation discards input identity (median, trimmed_mean, clustering).
  /// Forensics is diagnostic-only — it never changes aggregate()'s output,
  /// which stays bitwise-identical to the forensics-off result.
  void set_forensics(bool enabled) noexcept { forensics_ = enabled; }
  [[nodiscard]] bool forensics() const noexcept { return forensics_; }

 protected:
  std::size_t threads_ = 1;
  bool forensics_ = false;
  AggTelemetry telemetry_;
};

/// Build a rule by name: "mean", "krum", "multikrum", "median",
/// "trimmed_mean", "geomed", "centered_clip", "norm_filter".
/// byzantine_fraction parameterizes rules that assume an f bound
/// (Krum/MultiKrum/TrimmedMean); threads is forwarded to set_threads().
/// Throws on unknown names.
[[nodiscard]] std::unique_ptr<Aggregator> make_aggregator(const std::string& name,
                                                          double byzantine_fraction = 0.25,
                                                          std::size_t threads = 1);

/// Names accepted by make_aggregator, for CLIs and test sweeps.
[[nodiscard]] const std::vector<std::string>& aggregator_names();

}  // namespace abdhfl::agg
