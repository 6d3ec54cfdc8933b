/**
 * @file
 * Outcome extraction and checking, metric bookkeeping, statistics.
 *
 * Outcomes are read by NAME from the result JSON the engine emits
 * (io::resultToJson, or a daemon's result reply), never from
 * CampaignResult fields, and only the outcome half of a result is
 * compared: engine provenance (runs, early exits, replay counters,
 * timing) may change under a refactor, outcomes may not.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "base/logging.hh"
#include "ledger.hh"

namespace ledger
{

namespace
{

/** The outcome members of a result, in a fixed order. */
const char *const kOutcomeFields[] = {
    "initial_faults", "ace_masked", "survivors",      "num_groups",
    "injections",     "merlin_estimate", "survivor_truth",
};

std::uint64_t
sumOf(const Json &counts)
{
    std::uint64_t s = 0;
    for (const Json &c : counts.items())
        s += c.asU64();
    return s;
}

/** Non-masked share of a class-count array (Masked is class 0), with
 *  @p extra_masked faults added to the Masked class. */
double
avfOf(const Json &counts, std::uint64_t extra_masked)
{
    const double total = static_cast<double>(sumOf(counts) + extra_masked);
    if (total == 0)
        return 0.0;
    const double masked =
        static_cast<double>(counts[0].asU64() + extra_masked);
    return 1.0 - masked / total;
}

std::string
expectedPath(const std::string &workload, std::uint64_t seed)
{
    return sourceDir() + "/expected/" + workload + ".seed" +
           std::to_string(seed) + ".json";
}

} // namespace

std::string
labelOf(const CampaignSpec &spec)
{
    const Json j = spec.toJson();
    const std::string s = j.strOr("structure", "?");
    const char *size_member = s == "rf"   ? "regs"
                              : s == "sq" ? "sq_entries"
                                          : "l1d_kb";
    return j.strOr("workload", "?") + "/" + s + "/" +
           std::to_string(j.u64Or(size_member, 0));
}

std::string
setLabel(unsigned set, const CampaignSpec &spec)
{
    return "set" + std::to_string(set) + "/" + labelOf(spec);
}

Json
outcomeOf(const Json &result)
{
    Json o = Json::object();
    for (const char *field : kOutcomeFields) {
        if (const Json *v = result.find(field))
            o.set(field, *v);
    }
    return o;
}

std::uint64_t
injectedOf(const Json &outcome)
{
    return outcome.u64Or("injections", 0) +
           (outcome.find("survivor_truth") ? outcome.u64Or("survivors", 0)
                                           : 0);
}

std::uint64_t
quarantinedOf(const Json &result)
{
    const Json *q = result.find("quarantine");
    return q ? q->size() : 0;
}

void
Tally::fail(const std::string &what)
{
    ++failed;
    std::fprintf(stderr, "merlin_ledger: FAILED: %s\n", what.c_str());
}

void
checkInvariants(const std::string &label, const Json &o,
                bool grouping_only, Tally &tally)
{
    for (const char *field : kOutcomeFields) {
        const std::string f = field;
        if (f == "survivor_truth" || (grouping_only && f == "merlin_estimate"))
            continue;
        if (!o.find(f)) {
            tally.fail(label + ": result has no '" + f + "'");
            return;
        }
    }
    const std::uint64_t initial = o.u64Or("initial_faults", 0);
    const std::uint64_t surv = o.u64Or("survivors", 0);
    const std::uint64_t groups = o.u64Or("num_groups", 0);
    const std::uint64_t inj = o.u64Or("injections", 0);
    std::ostringstream bad;
    if (o.u64Or("ace_masked", 0) + surv != initial)
        bad << " ace_masked + survivors != initial_faults;";
    if (groups > surv || inj < groups || inj > surv)
        bad << " groups/injections do not partition the survivors;";
    if (!grouping_only && sumOf(o.at("merlin_estimate")) != initial)
        bad << " estimate does not cover every initial fault;";
    if (const Json *t = o.find("survivor_truth"); t && sumOf(*t) != surv)
        bad << " truth does not cover every survivor;";
    if (!bad.str().empty())
        tally.fail(label + ":" + bad.str() + " " + o.dump());
}

void
checkSame(const Outcomes &want, const Outcomes &got,
          const std::string &what, Tally &tally)
{
    for (const auto &[label, w] : want) {
        const auto it = got.find(label);
        if (it == got.end())
            tally.fail(label + ": missing (" + what + ")");
        else if (!(it->second == w))
            tally.fail(label + ": outcome differs from " + what +
                       ": want " + w.dump() + " got " +
                       it->second.dump());
    }
    for (const auto &[label, g] : got) {
        (void)g;
        if (!want.count(label))
            tally.fail(label + ": not in " + what);
    }
}

bool
checkExpected(const std::string &workload, std::uint64_t seed,
              const Outcomes &got, Tally &tally)
{
    const std::optional<Json> doc =
        readJsonFile(expectedPath(workload, seed));
    if (!doc)
        return false;
    const Json &campaigns = doc->at("campaigns");
    const std::string file =
        "expected/" + workload + ".seed" + std::to_string(seed) + ".json";
    for (const auto &[label, g] : got) {
        const Json *want = campaigns.find(label);
        if (!want)
            tally.fail(label + ": not in " + file);
        else if (!(*want == g))
            tally.fail(label + ": outcome differs from " + file +
                       ": want " + want->dump() + " got " + g.dump());
    }
    return true;
}

void
writeExpected(const std::string &workload, std::uint64_t seed,
              const Outcomes &got)
{
    // One campaign per line, so a changed outcome is a one-line diff.
    std::string text = "{\"format\": \"merlin-ledger-expected-v1\", "
                       "\"workload\": " +
                       Json(workload).dump() +
                       ", \"seed\": " + std::to_string(seed) +
                       ",\n \"campaigns\": {";
    const char *sep = "\n  ";
    for (const auto &[label, o] : got) {
        text += sep + Json(label).dump() + ": " + o.dump();
        sep = ",\n  ";
    }
    text += "\n }\n}\n";
    const std::string path = expectedPath(workload, seed);
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << text;
    if (!out)
        merlin::fatal("cannot write '", path, "'");
    std::fprintf(stderr, "merlin_ledger: wrote %s\n", path.c_str());
}

double
avfErrorPp(const Outcomes &outcomes)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &[label, o] : outcomes) {
        (void)label;
        const Json *truth = o.find("survivor_truth");
        if (!truth)
            continue;
        const double est = avfOf(o.at("merlin_estimate"), 0);
        const double tru = avfOf(*truth, o.u64Or("ace_masked", 0));
        sum += std::fabs(est - tru) * 100.0;
        ++n;
    }
    return n ? sum / static_cast<double>(n) : -1.0;
}

// -------------------------------------------------------------- metrics

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value)) {
        // Nothing was measured (e.g. a failed run): absent, not 0.
        std::fprintf(stderr, "merlin_ledger: %s was not measured\n",
                     name.c_str());
        return;
    }
    for (Metric &m : list) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    list.push_back(Metric{name, value, unit});
}

const Metric *
Metrics::find(const std::string &name) const
{
    for (const Metric &m : list) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

// ----------------------------------------------------------- statistics

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
quartiles(std::vector<double> v, double &q1, double &q3)
{
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld < 2) {
        q1 = q3 = ld ? v[0] : 0.0;
        return;
    }
    // statistics.quantiles(method='exclusive') with n = 4.
    const long m = ld + 1;
    double out[2];
    for (long i : {1L, 3L}) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out[i == 1 ? 0 : 1] =
            (v[j - 1] * static_cast<double>(4 - delta) +
             v[j] * static_cast<double>(delta)) /
            4.0;
    }
    q1 = out[0];
    q3 = out[1];
}

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
processPeakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::optional<Json>
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::stringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
}

std::string
sourceDir()
{
    return LEDGER_SOURCE_DIR;
}

std::string
benchmarkJson()
{
    return sourceDir() + "/../../BENCHMARK.json";
}

std::string
serveBinary()
{
    return MERLIN_SERVE_PATH;
}

} // namespace ledger
