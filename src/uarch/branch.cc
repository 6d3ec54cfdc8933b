#include "uarch/branch.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace merlin::uarch
{

namespace
{

unsigned
log2u(unsigned v)
{
    MERLIN_ASSERT(v != 0 && (v & (v - 1)) == 0, "size must be power of two");
    return static_cast<unsigned>(std::countr_zero(v));
}

} // namespace

TournamentPredictor::TournamentPredictor(const CoreConfig &cfg)
    : localBits_(log2u(cfg.localPredictorEntries)),
      globalBits_(log2u(cfg.globalPredictorEntries)),
      localHistory_(cfg.localPredictorEntries, 0),
      localCounters_(cfg.localPredictorEntries, 1),
      globalCounters_(cfg.globalPredictorEntries, 1),
      chooser_(cfg.chooserEntries, 1)
{
}

void
TournamentPredictor::bump(std::uint8_t &ctr, bool up)
{
    if (up) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

PredictionState
TournamentPredictor::predict(Addr pc)
{
    PredictionState st;
    st.ghistSnapshot = ghist_;

    const std::uint32_t pc_idx = static_cast<std::uint32_t>(pc >> 3);
    st.localIdx = pc_idx & ((1u << localBits_) - 1);
    const std::uint16_t lhist =
        localHistory_[st.localIdx] & ((1u << localBits_) - 1);
    // Local component indexes its counters with the per-branch history.
    const bool local_taken = localCounters_[lhist] >= 2;

    st.globalIdx =
        (pc_idx ^ ghist_) & ((1u << globalBits_) - 1);
    const bool global_taken = globalCounters_[st.globalIdx] >= 2;

    st.chooserIdx = ghist_ & (chooser_.size() - 1);
    const bool use_global = chooser_[st.chooserIdx] >= 2;

    st.taken = use_global ? global_taken : local_taken;

    // Speculative history update.
    ghist_ = ((ghist_ << 1) | (st.taken ? 1 : 0)) &
             ((1u << globalBits_) - 1);
    return st;
}

void
TournamentPredictor::update(Addr pc, bool taken,
                            const PredictionState &state)
{
    const std::uint16_t lhist =
        localHistory_[state.localIdx] & ((1u << localBits_) - 1);
    const bool local_taken = localCounters_[lhist] >= 2;
    const bool global_taken = globalCounters_[state.globalIdx] >= 2;

    // Train the chooser toward whichever component was right.
    if (local_taken != global_taken)
        bump(chooser_[state.chooserIdx], global_taken == taken);

    bump(localCounters_[lhist], taken);
    bump(globalCounters_[state.globalIdx], taken);

    localHistory_[state.localIdx] =
        static_cast<std::uint16_t>((lhist << 1) | (taken ? 1 : 0));
    (void)pc;
}

void
TournamentPredictor::repairHistory(const PredictionState &state, bool taken)
{
    ghist_ = ((state.ghistSnapshot << 1) | (taken ? 1 : 0)) &
             ((1u << globalBits_) - 1);
}

bool
TournamentPredictor::stateEquals(const TournamentPredictor &o) const
{
    return ghist_ == o.ghist_ && localHistory_ == o.localHistory_ &&
           localCounters_ == o.localCounters_ &&
           globalCounters_ == o.globalCounters_ && chooser_ == o.chooser_;
}

std::uint64_t
TournamentPredictor::stateBytes() const
{
    return localHistory_.size() * sizeof(std::uint16_t) +
           localCounters_.size() + globalCounters_.size() +
           chooser_.size() + sizeof(ghist_);
}

Btb::Btb(unsigned entries)
{
    MERLIN_ASSERT(entries != 0 && (entries & (entries - 1)) == 0,
                  "BTB size power of two");
    entries_ = base::CowArray<Entry>(entries, std::min(entries, 64u));
}

std::optional<Addr>
Btb::lookup(Addr pc) const
{
    const Entry &e = entries_[(pc >> 3) & (entries_.size() - 1)];
    if (e.valid && e.pc == pc)
        return e.target;
    return std::nullopt;
}

void
Btb::update(Addr pc, Addr target)
{
    const std::size_t idx = (pc >> 3) & (entries_.size() - 1);
    const Entry fresh{true, pc, target};
    // Re-training an entry to the value it holds is a no-op; skipping
    // it keeps a restored core's table chunk shared.
    if (entries_[idx] == fresh)
        return;
    entries_.mut(idx) = fresh;
}

bool
Btb::stateEquals(const Btb &o) const
{
    return entries_ == o.entries_;
}

Ras::Ras(unsigned entries)
    : stack_(entries, 0)
{
    MERLIN_ASSERT(entries > 0, "RAS must have entries");
}

std::uint32_t
Ras::below(std::uint32_t i) const
{
    return i == 0 ? static_cast<std::uint32_t>(stack_.size() - 1) : i - 1;
}

Ras::Snapshot
Ras::snapshot() const
{
    return Snapshot{top_, stack_[below(top_)]};
}

void
Ras::restore(const Snapshot &snap)
{
    top_ = snap.top;
    stack_[below(top_)] = snap.topValue;
}

void
Ras::push(Addr ret_addr)
{
    stack_[top_] = ret_addr;
    top_ = top_ + 1 == stack_.size() ? 0 : top_ + 1;
}

Addr
Ras::pop()
{
    top_ = below(top_);
    return stack_[top_];
}

bool
Ras::stateEquals(const Ras &o) const
{
    return top_ == o.top_ && stack_ == o.stack_;
}

std::uint64_t
Ras::stateBytes() const
{
    return stack_.size() * sizeof(Addr) + sizeof(top_);
}

} // namespace merlin::uarch
