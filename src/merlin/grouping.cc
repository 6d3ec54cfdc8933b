#include "merlin/grouping.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "base/logging.hh"

namespace merlin::core
{

FaultReducer::FaultReducer(const profile::StructureProfile &profile,
                           const GroupingOptions &opts, bool keep_survivors)
    : profile_(profile), opts_(opts), keep_(keep_survivors)
{
}

std::size_t
FaultReducer::KeyHash::operator()(const Key &k) const noexcept
{
    // Mixes every key bit; equality still compares the whole key.
    std::uint64_t h =
        k.rip ^ ((static_cast<std::uint64_t>(k.upc) << 8 | k.sub) *
                 0x9e3779b97f4a7c15ULL);
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
}

std::uint64_t
FaultReducer::numGroups() const
{
    const std::uint64_t cap = std::max(1u, opts_.maxGroupSize);
    std::uint64_t groups = 0;
    for (const auto &[key, n] : tallies_)
        groups += (n + cap - 1) / cap;
    return groups;
}

std::uint64_t
FaultReducer::numInjections() const
{
    const std::uint64_t cap = std::max(1u, opts_.maxGroupSize);
    const std::uint64_t reps = std::max(1u, opts_.repsPerGroup);
    std::uint64_t injections = 0;
    for (const auto &[key, n] : tallies_) {
        // Round-robin over `chunks` chunks: the first n % chunks of
        // them hold one member more than the rest.
        const std::uint64_t chunks = (n + cap - 1) / cap;
        const std::uint64_t small = n / chunks, big = n % chunks;
        injections += big * std::min(reps, small + 1) +
                      (chunks - big) * std::min(reps, small);
    }
    return injections;
}

GroupingResult
FaultReducer::taken()
{
    MERLIN_ASSERT(keep_, "the reducer kept no survivors to group");
    GroupingResult res;
    res.survivors = std::move(kept_);
    res.aceMasked = aceMasked_;
    return res;
}

GroupingResult
FaultReducer::group(Rng &rng) &&
{
    GroupingResult res = taken();

    // Step 1 + byte part of step 2 as a composite key.
    using BucketKey = std::tuple<Rip, Upc, std::uint8_t>;
    std::map<BucketKey, std::vector<std::uint32_t>> buckets;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(res.survivors.size()); ++i) {
        const TaggedFault &tf = res.survivors[i];
        buckets[BucketKey{tf.rip, tf.upc,
                          opts_.subKey(tf.fault.bit)}]
            .push_back(i);
    }

    // Step 2: split oversized subgroups round-robin across dynamic
    // instances so each final group (and its representative) spans
    // different dynamic occurrences of the same static instruction.
    const unsigned cap = std::max(1u, opts_.maxGroupSize);
    for (auto &[key, members] : buckets) {
        std::sort(members.begin(), members.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const TaggedFault &fa = res.survivors[a];
                      const TaggedFault &fb = res.survivors[b];
                      if (fa.intervalStart != fb.intervalStart)
                          return fa.intervalStart < fb.intervalStart;
                      if (fa.fault.entry != fb.fault.entry)
                          return fa.fault.entry < fb.fault.entry;
                      return fa.fault.cycle < fb.fault.cycle;
                  });
        const std::size_t n = members.size();
        const std::size_t num_chunks = (n + cap - 1) / cap;

        std::vector<FaultGroup> chunks(num_chunks);
        for (std::size_t c = 0; c < num_chunks; ++c) {
            chunks[c].rip = std::get<0>(key);
            chunks[c].upc = std::get<1>(key);
            chunks[c].byte = std::get<2>(key);
        }
        // Round-robin assignment over the time-sorted order.
        for (std::size_t i = 0; i < n; ++i)
            chunks[i % num_chunks].members.push_back(members[i]);

        const unsigned reps = std::max(1u, opts_.repsPerGroup);
        for (auto &g : chunks) {
            // Sample representatives without replacement; the chunk is
            // time-interleaved, so a stride over it preserves dynamic
            // diversity.
            const std::size_t want =
                std::min<std::size_t>(reps, g.members.size());
            const std::size_t start = rng.nextBelow(g.members.size());
            const std::size_t stride =
                std::max<std::size_t>(1, g.members.size() / want);
            for (std::size_t r = 0; r < want; ++r) {
                g.representatives.push_back(
                    g.members[(start + r * stride) % g.members.size()]);
            }
            res.groups.push_back(std::move(g));
        }
    }
    return res;
}

GroupingResult
FaultReducer::relyzerGroup(const profile::AceProfiler &profiler,
                           unsigned path_depth, Rng &rng) &&
{
    GroupingResult res = taken();

    // Control equivalence: (RIP, uPC, depth-limited control path of the
    // dynamic instance).  No byte split; one random pilot per group.
    using BucketKey = std::tuple<Rip, Upc, std::uint64_t>;
    std::map<BucketKey, std::vector<std::uint32_t>> buckets;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(res.survivors.size()); ++i) {
        const TaggedFault &tf = res.survivors[i];
        const std::uint64_t sig =
            profiler.pathSignature(tf.endSeq, path_depth);
        buckets[BucketKey{tf.rip, tf.upc, sig}].push_back(i);
    }

    for (auto &[key, members] : buckets) {
        FaultGroup g;
        g.rip = std::get<0>(key);
        g.upc = std::get<1>(key);
        g.byte = 255;
        g.members = std::move(members);
        g.representatives.push_back(
            g.members[rng.nextBelow(g.members.size())]);
        res.groups.push_back(std::move(g));
    }
    return res;
}

GroupingResult
groupFaults(const std::vector<faultsim::Fault> &faults,
            const profile::StructureProfile &profile,
            const GroupingOptions &opts, Rng &rng)
{
    FaultReducer reducer(profile, opts, true);
    for (const faultsim::Fault &f : faults)
        reducer.add(f);
    return std::move(reducer).group(rng);
}

GroupingResult
relyzerGroupFaults(const std::vector<faultsim::Fault> &faults,
                   const profile::StructureProfile &profile,
                   const profile::AceProfiler &profiler,
                   unsigned path_depth, Rng &rng)
{
    FaultReducer reducer(profile, GroupingOptions{}, true);
    for (const faultsim::Fault &f : faults)
        reducer.add(f);
    return std::move(reducer).relyzerGroup(profiler, path_depth, rng);
}

} // namespace merlin::core
