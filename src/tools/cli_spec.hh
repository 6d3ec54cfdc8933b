/**
 * @file
 * Shared CLI plumbing for the merlin tools.
 *
 * merlin_cli and merlin_serve must parse specs and flags IDENTICALLY —
 * a campaign submitted over the wire has to hash to the same content
 * key the batch CLI would give it, and a daemon flag must accept
 * exactly the grammar the one-shot suite accepts.  Everything that
 * defines that grammar lives here: the --flag parser, the strict
 * numeric accessors, manifest loading, the SuiteOptions /
 * CampaignService::Config derivations, and the report printers both
 * front ends share.
 */

#ifndef MERLIN_TOOLS_CLI_SPEC_HH
#define MERLIN_TOOLS_CLI_SPEC_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "merlin/campaign.hh"
#include "sched/service.hh"
#include "sched/suite.hh"
#include "uarch/core.hh"

namespace merlin::tools
{

/** Minimal --key value / --flag parser. */
struct Args
{
    /** Flag -> value; nullopt for a bare flag (`--relyzer`). */
    std::map<std::string, std::optional<std::string>> kv;

    /** fatal() on a flag given twice (`--faults 5 --faults=7`). */
    static Args parse(int argc, char **argv, int start);

    /** True for a flag given with or without a value. */
    bool has(const std::string &k) const { return kv.count(k) != 0; }
    /** Value of --k, @p def when absent; fatal() on a bare --k, so a
     *  forgotten value cannot silently become one (every value
     *  accessor below does the same). */
    std::string get(const std::string &k,
                    const std::string &def = "") const;
    /** Unsigned value of --k; fatal() on garbage, a sign or a value
     *  that would truncate (to 0: "all threads" for --jobs). */
    unsigned getU32(const std::string &k, unsigned def) const;
    /** Floating-point value of --k; fatal() on garbage. */
    double getD(const std::string &k, double def) const;

  private:
    /** The value of --k: null when absent, fatal() when bare. */
    const std::string *value(const std::string &k) const;
};

/** Reject flags outside @p known — a typo'd flag must not silently
 *  fall back to a default.  A retired flag's diagnostic says what
 *  replaced it. */
void requireKnownFlags(const Args &args,
                       std::initializer_list<const char *> known,
                       const char *what);

/**
 * The CampaignSpec that `campaign`'s and `asm`'s flags name: each flag
 * `--member-name` is member `member_name` of one manifest entry over
 * {"workload": "qsort", "faults": 2000}, which parseManifest checks.
 * A value is the JSON number, bool or null it parses as, else a
 * string; a bare flag is `true`.  Flags in @p operational are the
 * caller's; any other flag is fatal() by name.
 */
sched::CampaignSpec
specFromFlags(const Args &args,
              std::initializer_list<const char *> operational,
              const char *what);

/** @p spec's configuration for @p w, with --jobs and --quarantine
 *  (how a campaign runs, never what it computes) on top. */
core::CampaignConfig runConfig(const sched::CampaignSpec &spec,
                               const workloads::BuiltWorkload &w,
                               const Args &args);

/** Write @p text to @p path atomically (temp file + rename). */
void writeTextFile(const std::string &path, const std::string &text);

/**
 * Telemetry flags shared by `campaign`, `suite` and the daemon:
 * --trace=FILE records Chrome trace_event spans, --metrics=FILE dumps
 * the metrics registry snapshot.  Strictly out-of-band — simulation
 * results and store/journal bytes are identical with or without them.
 */
void startTelemetry(const Args &args);
void finishTelemetry(const Args &args);

/** --quarantine=fail|continue (the fault-tolerance policy switch). */
bool parseQuarantineFail(const Args &args);

/** Read and strictly parse the JSON file at @p path. */
io::Json loadJsonFile(const std::string &path, const char *what);

/** Load a suite manifest file into fully-resolved specs. */
std::vector<sched::CampaignSpec>
loadManifestFile(const std::string &path);

/**
 * The one-shot suite knobs (--jobs/--out/--resume/...), validations
 * included — the single derivation both `suite` and any batch-flavored
 * front end use.
 */
sched::SuiteOptions suiteOptionsFromArgs(const Args &args);

/**
 * The daemon-lifetime service knobs from the SAME flag grammar
 * (--jobs/--store/quarantine).  The daemon
 * always loads its store — a warm cache is its reason to exist.
 */
sched::CampaignService::Config serviceConfigFromArgs(const Args &args);

/** Print one campaign's reliability report (`campaign` / `result`). */
void printCampaign(const core::CampaignResult &r, std::uint64_t bits);

/**
 * Print how the engine produced a campaign run in this process — early
 * exits, replay, reconvergence, wall clock — from the runner's own
 * counters.  Never part of a stored result, so only commands that
 * simulated print it.
 */
void printEngineStats(const faultsim::InjectionStats &s, double seconds);

/** Target-structure bit count for FIT math, from a resolved config. */
std::uint64_t structureBits(const core::CampaignConfig &cc);

/**
 * Print the suite report table + summary blocks exactly as
 * `merlin_cli suite` always has (CI awks these columns).  @p opts
 * supplies jobs and the store path for the trailer lines.
 */
void printSuiteReport(const std::vector<sched::CampaignSpec> &specs,
                      const sched::SuiteResult &suite,
                      const sched::SuiteOptions &opts);

} // namespace merlin::tools

#endif // MERLIN_TOOLS_CLI_SPEC_HH
