/**
 * @file
 * merlin_ledger: the repository's benchmark.
 *
 * Four pinned campaign workloads, each run in its own process, measure
 * the two halves of MeRLiN's claim — fast (host seconds, throughput,
 * set-up time, memory) and accurate (outcomes checked against committed
 * expectations, AVF error against exhaustive injection).  A separate
 * traced run wraps every public call into the engine's layers in the
 * benchmark's own spans and reports per-layer numbers.
 *
 * The benchmark drives the engine only through public entry points
 * (SuiteScheduler, merlin_serve over WireConnection, and for the traced
 * run Core / InjectionRunner / AceProfiler / sampleFaults / groupFaults
 * / ResultStore / CampaignService), reads engine counters by name from
 * obs::Registry, and reads outcomes by name from the emitted result
 * JSON — so engine refactors that keep outcomes cannot break it.
 */

#ifndef MERLIN_LEDGER_LEDGER_HH
#define MERLIN_LEDGER_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "io/json.hh"
#include "sched/suite.hh"

namespace ledger
{

using merlin::io::Json;
using merlin::sched::CampaignSpec;
using Clock = std::chrono::steady_clock;

/** Suite workers of every untraced run (half of the 4-core host, so
 *  the daemon's sessions and the load generator have cores too). */
constexpr unsigned kWorkers = 2;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ workloads

/** Input sets a run cycles through (see makeWorkload). */
constexpr unsigned kInputSets = 3;
/** Campaign-seed distance between consecutive input sets. */
constexpr std::uint64_t kSetStride = 1'000'003;

struct Workload
{
    std::string name;
    /**
     * The measured campaigns — the batch suite, or the service's cold
     * sweep — once per input set.  Set j samples its fault lists with
     * campaign seed `seed + j * kSetStride`; repetition k of a run runs
     * set k mod kInputSets.
     */
    std::vector<std::vector<CampaignSpec>> sets;
    /** service_mixed: the specs its daemon holds warm. */
    std::vector<CampaignSpec> warm;
    bool service = false;
    /** The batch suite persists to a cold on-disk store + journals. */
    bool onDiskStore = false;
    /** service_mixed: interactive warm submit+result pairs per second. */
    double rate = 0.0;
};

/** The four workloads, in run order. */
const std::vector<std::string> &workloadNames();

/** Build @p name's inputs from @p seed (@p smoke: the shrunken copy). */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool smoke);

// ------------------------------------------------------------- outcomes

/** Outcomes of one run, keyed by setLabel() (service_mixed: prefixed
 *  "sweep/", and "warm/" + labelOf() for its warm set). */
using Outcomes = std::map<std::string, Json>;

/** "<workload>/<structure>/<size of the target structure>". */
std::string labelOf(const CampaignSpec &spec);

/** "set<j>/" + labelOf(@p spec). */
std::string setLabel(unsigned set, const CampaignSpec &spec);

/** The outcome fields of a stored result, read by name: class counts,
 *  survivors, groups, injections and truth counts. */
Json outcomeOf(const Json &result);

/** Injections a result's outcome stands for: the representatives, plus
 *  every survivor when ground truth was swept. */
std::uint64_t injectedOf(const Json &outcome);

/** Quarantined injections recorded in a result. */
std::uint64_t quarantinedOf(const Json &result);

/** Operations attempted and failed, with every failure named on
 *  stderr. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void fail(const std::string &what);
};

/**
 * Internal consistency of one campaign outcome (fault-list accounting
 * adds up); a violation is a failure named after @p label.
 */
void checkInvariants(const std::string &label, const Json &outcome,
                     bool grouping_only, Tally &tally);

/** Every campaign of @p got must equal @p want (same label set); each
 *  mismatch is a failure naming the campaign and @p what. */
void checkSame(const Outcomes &want, const Outcomes &got,
               const std::string &what, Tally &tally);

/**
 * Compare @p got with the committed expectation for (workload, seed):
 * every campaign run must be expected, with equal outcomes.
 * @return false when no expectation exists (the seed is unverified).
 */
bool checkExpected(const std::string &workload, std::uint64_t seed,
                   const Outcomes &got, Tally &tally);

void writeExpected(const std::string &workload, std::uint64_t seed,
                   const Outcomes &got);

/** Mean |MeRLiN AVF - truth AVF| in percentage points over the
 *  campaigns that carry ground truth; negative when none do. */
double avfErrorPp(const Outcomes &outcomes);

// -------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in the order they were measured. */
struct Metrics
{
    std::vector<Metric> list;

    void set(const std::string &name, double value,
             const std::string &unit);
    const Metric *find(const std::string &name) const;
};

// ---------------------------------------------------------- statistics

/** Linear-interpolated percentile (0..100) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(v, 50); }

/** First and third quartile as Python's statistics.quantiles(v, n=4)
 *  gives them (exclusive method); both the value itself for one. */
void quartiles(std::vector<double> v, double &q1, double &q3);

/** User + system CPU seconds of this process. */
double processCpuSeconds();
/** Peak resident set of this process, MiB. */
double processPeakRssMb();

// ---------------------------------------------------------------- runs

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false;
    bool smoke = false;
    bool writeExpected = false;
    /** Where the traced run writes its Chrome trace. */
    std::string traceOut;
};

/** What one run reports. */
struct RunReport
{
    Metrics metrics;
    Tally tally;
    /** Checks beyond the failure count (e.g. trace coverage). */
    bool correct = true;
};

/** Grouping-only workloads inject nothing. */
bool groupingOnly(const Workload &w);

/** Batch set-up: the spec list from the seed and every program built.
 *  @return its seconds. */
double setupBatch(const std::string &name, std::uint64_t seed, bool smoke);

/** One repetition of a batch workload: input set @p set's suite on a
 *  cold store. */
struct BatchRep
{
    double wall = 0.0;
    double cpu = 0.0;
    Outcomes outcomes;
    std::vector<Json> results; ///< in spec order
};

BatchRep batchRep(const Workload &w, unsigned set, Tally &tally);

/** Measure @p w (end-to-end metrics). */
RunReport measureRun(const Workload &w, const RunOptions &opts);

/** One untraced repetition and a traced serial pass (per-layer
 *  metrics). */
RunReport tracedRun(const Workload &w, const RunOptions &opts);

// ------------------------------------------------ merlin-bench-v1 files

/** A merlin-bench-v1 document holding one run of one workload. */
Json benchDoc(const std::string &workload, const RunOptions &opts,
              const RunReport &rep);

/** Fold run documents into one, recomputing medians and quartiles. */
Json mergeDocs(const std::vector<Json> &docs, const std::string &git_rev);

/**
 * For every (workload, end-to-end metric) print better / worse /
 * unchanged / unresolved.  @return nonzero when any pair is worse or
 * failed_frac rose.
 */
int compareDocs(const Json &old_doc, const Json &new_doc,
                const Json &benchmark);

/** Parse the JSON file at @p path; nullopt when it cannot be read. */
std::optional<Json> readJsonFile(const std::string &path);

/** Repository paths baked in at configure time. */
std::string sourceDir();    ///< bench/ledger
std::string benchmarkJson(); ///< the root BENCHMARK.json
std::string serveBinary();  ///< the merlin_serve built beside the ledger

} // namespace ledger

#endif // MERLIN_LEDGER_LEDGER_HH
