/**
 * @file
 * Differential sweeps: join two result stores campaign-by-campaign
 * and report what a configuration change did to reliability.
 *
 * A design-space exploration runs the same suite under configuration
 * A and configuration B (say L1D 64 KB vs 16 KB) into two stores.
 * SuiteDiff pairs the campaigns up by joining on the content hash of
 * each spec *modulo the swept axis* — the axis knobs (e.g. `l1d_kb`)
 * are masked out of the spec JSON before hashing, so two specs that
 * differ only in the sweep pair up and everything else (a different
 * seed, workload, sampling...) stays unpaired and is reported as
 * one-sided.
 *
 * Per joined pair the diff reports B - A deltas: ΔAVF, per-class
 * count and fraction deltas and Δinjected representatives — each
 * AVF/fraction delta with a confidence interval from the
 * paper's statistical sampling model (Leveugle et al.): each side's
 * estimate derives from an initial sample of n faults, so its margin
 * at confidence c is e = z(c) * sqrt(p(1-p)/n) with the conservative
 * p = 0.5, and the margin of the difference of the two independent
 * estimates combines in quadrature, sqrt(eA^2 + eB^2).
 *
 * Everything about the result is deterministic: rows are sorted by
 * join key, serialization uses the io::Json byte-stable dump, and
 * the inputs are themselves byte-identical for any --jobs/merge
 * order — so a diff of two sweeps is a comparable, committable
 * artifact.
 */

#ifndef MERLIN_SCHED_DIFF_HH
#define MERLIN_SCHED_DIFF_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "faultsim/fault.hh"
#include "io/result_store.hh"

namespace merlin::sched
{

/**
 * Conservative sampling margin of one AVF estimate derived from an
 * initial statistical sample of @p initial_faults faults: at
 * confidence c the estimate of any outcome fraction carries
 * e = z(c) * sqrt(p(1-p)/n) with the conservative p = 0.5 (Leveugle
 * et al.; MeRLiN's claim, verified by the accuracy figures, is that
 * pruning and grouping add no further error, so n is the INITIAL
 * fault count, not the injected representative count).  A zero-fault
 * side has no sample and therefore NO margin — the statistical model
 * simply does not apply — so the margin is absent, never 0.
 */
std::optional<double> samplingMargin(std::uint64_t initial_faults,
                                     double confidence);

/**
 * Margin of the difference of two independent estimates: the
 * quadrature combination sqrt(a^2 + b^2), absent when either side's
 * margin is (an absent side would silently understate the interval).
 */
std::optional<double> quadratureMargin(std::optional<double> a,
                                       std::optional<double> b);

struct DiffOptions
{
    /**
     * Spec members masked out of the join key (the swept knobs).
     * Every name must be a CampaignSpec JSON member (isSpecMember);
     * a typo here would silently empty the join, so it is fatal.
     * Empty = exact join: only byte-identical specs pair up.
     */
    std::vector<std::string> axis;
    /** Confidence level of the per-delta intervals (paper: 0.998). */
    double confidence = 0.998;
};

/** One joined campaign pair: every delta is B minus A. */
struct CampaignDelta
{
    std::string joinKey; ///< content hash of the axis-masked spec
    io::Json maskedSpec; ///< the shared (non-axis) spec members
    io::Json axisA;      ///< axis member -> value on side A
    io::Json axisB;      ///< axis member -> value on side B
    std::string keyA;    ///< full store key on side A
    std::string keyB;    ///< full store key on side B

    double avfA = 0.0; ///< MeRLiN-estimate AVF, side A
    double avfB = 0.0;
    double dAvf = 0.0; ///< avfB - avfA
    /**
     * CI half-width on dAvf (and any class fraction delta; same
     * conservative margin).  Absent — serialized as JSON null,
     * printed as "-" — when either side ran zero initial faults:
     * no sample, no margin (0 would claim false certainty).
     */
    std::optional<double> dAvfCi;

    /** Per-class deltas of the extrapolated estimate (Table-2 order). */
    std::array<std::int64_t, faultsim::NUM_OUTCOMES> dClasses{};
    std::array<double, faultsim::NUM_OUTCOMES> dClassFracs{};

    std::uint64_t injectionsA = 0; ///< injected representatives
    std::uint64_t injectionsB = 0;
    std::int64_t dInjections = 0;
};

/** A campaign present in only one store (no partner across the axis). */
struct UnpairedCampaign
{
    std::string joinKey;
    std::string key; ///< full store key
    io::Json spec;   ///< the full spec as stored
};

struct SuiteDiffResult
{
    std::vector<std::string> axis;
    double confidence = 0.998;
    std::size_t campaignsA = 0; ///< entries in store A
    std::size_t campaignsB = 0;

    std::vector<CampaignDelta> deltas;      ///< sorted by joinKey
    std::vector<UnpairedCampaign> onlyA;    ///< sorted by joinKey
    std::vector<UnpairedCampaign> onlyB;

    // Aggregates over the joined pairs.
    double meanDAvf = 0.0;
    double meanAbsDAvf = 0.0;
    /**
     * sqrt(sum ci^2)/n — CI on meanDAvf.  Present only when EVERY
     * joined pair carries a margin; one absent pair would make the
     * aggregate silently understate the interval.
     */
    std::optional<double> meanDAvfCi;
    std::array<std::int64_t, faultsim::NUM_OUTCOMES> dClassTotals{};

    /** Deterministic JSON document (fixed member order, sorted rows). */
    io::Json toJson() const;

    /** Deterministic human-readable table (what the CLI prints). */
    std::string table() const;
};

/**
 * Joins two result stores.  Construction validates the axis names;
 * run() performs the join and is fatal when either store holds two
 * entries that are identical modulo the axis (an ambiguous join:
 * the store itself contains the sweep).
 */
class SuiteDiff
{
  public:
    SuiteDiff(const io::ResultStore &a, const io::ResultStore &b,
              DiffOptions opts = {});

    SuiteDiffResult run() const;

  private:
    const io::ResultStore &a_;
    const io::ResultStore &b_;
    DiffOptions opts_;
};

} // namespace merlin::sched

#endif // MERLIN_SCHED_DIFF_HH
