#include "uarch/core.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <tuple>
#include <vector>

#include "base/bits.hh"
#include "base/logging.hh"
#include "isa/exec.hh"

namespace merlin::uarch
{

using isa::Opcode;
using isa::StaticUop;
using isa::TrapKind;
using isa::UopKind;

namespace
{
/** The uop a fetch-trap entry carries (it never executes). */
const StaticUop kNoUop{};

/**
 * Bytes [offset, offset + size) of an 8-byte entry as a byte mask.
 * Loads and stores are 1, 2, 4 or 8 bytes and SegmentedMemory::check
 * traps misaligned ones, so no access straddles an entry.
 */
std::uint8_t
byteMask(unsigned offset, unsigned size)
{
    MERLIN_ASSERT(offset + size <= 8, "access straddles an 8-byte entry");
    return static_cast<std::uint8_t>(((1u << size) - 1u) << offset);
}
} // namespace

Core::Core(const isa::Program &prog, const CoreConfig &cfg, Probe *probe)
    : cfg_(cfg),
      probe_(probe),
      mem_(prog.buildMemory()),
      l2_("l2", cfg.l2, nullptr, &mem_),
      l1i_("l1i", cfg.l1i, &l2_, nullptr),
      l1d_("l1d", cfg.l1d, &l2_, nullptr),
      tournament_(cfg),
      btb_(cfg.btbEntries),
      ras_(cfg.rasEntries),
      text_(decodeText(mem_)),
      fetchPc_(prog.entry)
{
    MERLIN_ASSERT(CoreConfig::validPhysIntRegs(cfg_.numPhysIntRegs),
                  "need more physical than architectural registers, "
                  "each addressable by a 16-bit tag");
    MERLIN_ASSERT(CoreConfig::validSqEntries(cfg_.sqEntries),
                  "need a store queue");
    l2_.setMemLatency(cfg_.memLatency);

    prf_.assign(cfg_.numPhysIntRegs, 0);
    prfReady_.assign(cfg_.numPhysIntRegs, 1);
    for (unsigned i = 0; i < isa::NUM_RENAMEABLE_REGS; ++i) {
        renameMap_[i] = static_cast<std::uint16_t>(i);
        commitMap_[i] = static_cast<std::uint16_t>(i);
    }
    prf_[isa::REG_SP] = isa::layout::STACK_TOP;
    // Initial architectural state is a physical write at cycle 0.
    if (probe_) {
        MERLIN_ASSERT(probe_->entries(Structure::RegisterFile) ==
                              numRegisterFileEntries() &&
                          probe_->entries(Structure::StoreQueue) ==
                              numStoreQueueEntries() &&
                          probe_->entries(Structure::L1DCache) ==
                              numL1dWords(),
                      "probe sized for a different machine");
        for (unsigned i = 0; i < isa::NUM_RENAMEABLE_REGS; ++i)
            probe_->initWrite(Structure::RegisterFile, i);
    }
    freeList_.reserve(cfg_.numPhysIntRegs);
    for (unsigned p = cfg_.numPhysIntRegs;
         p-- > isa::NUM_RENAMEABLE_REGS;) {
        freeList_.push_back(static_cast<std::uint16_t>(p));
    }

    rob_.assign(std::bit_ceil(cfg_.robEntries), RobEntry{});
    robMask_ = rob_.size() - 1;
    if (probe_)
        pending_.assign(rob_.size(), PendingReads{});
    iq_.reserve(cfg_.iqEntries);
    sq_.assign(cfg_.sqEntries, SqEntry{});
    sqData_.assign(cfg_.sqEntries, 0);
    // Fetch stops at kUopQueueFetchLimit uops and then adds at most a
    // full fetch group.
    FetchedUop blank;
    blank.su = &kNoUop;
    uopRing_.assign(kUopQueueFetchLimit +
                        cfg_.fetchWidth * isa::MAX_UOPS_PER_MACRO,
                    blank);
    divBusyUntil_.assign(cfg_.complexCount, 0);
}

std::shared_ptr<const Core::DecodedText>
Core::decodeText(const isa::SegmentedMemory &mem)
{
    // Program::buildMemory maps exactly one executable segment, at
    // TEXT_BASE; the table covers every slot mem.fetch() accepts, so
    // "slot in range and aligned" is the same decision fetch() makes.
    auto text = std::make_shared<DecodedText>();
    std::uint64_t raw = 0;
    for (Addr pc = isa::layout::TEXT_BASE;
         mem.fetch(pc, raw) == TrapKind::None; pc += isa::INSN_BYTES) {
        DecodedInsn d;
        if (auto insn = isa::decode(raw)) {
            d.op = insn->op;
            d.directTarget = static_cast<std::uint32_t>(insn->imm);
            d.numUops =
                static_cast<std::uint8_t>(isa::expand(*insn, pc, d.uops));
        }
        text->push_back(d);
    }
    return text;
}

// ---------------------------------------------------- snapshot / restore

void
Core::fixupAfterCopy()
{
    // Restored cores never record: the probe belongs to the golden run.
    probe_ = nullptr;
    pending_.clear();
    pending_.shrink_to_fit();
    l2_.repoint(nullptr, &mem_);
    l1i_.repoint(&l2_, nullptr);
    l1d_.repoint(&l2_, nullptr);
}

std::uint64_t
Core::deepStateBytes() const
{
    // Everything a memberwise copy duplicates byte-for-byte: the
    // register machinery, the window, the LSQ, the frontend, the
    // direction predictor, and the COW chunk-pointer tables themselves.
    std::uint64_t n = 0;
    n += prf_.size() * sizeof(std::uint64_t);
    n += prfReady_.size();
    n += freeList_.size() * sizeof(std::uint16_t);
    n += sizeof(renameMap_) + sizeof(commitMap_);
    n += rob_.size() * sizeof(RobEntry);
    n += pending_.size() * sizeof(PendingReads);
    n += iq_.size() * sizeof(IqEntry);
    n += completions_.size() * sizeof(Completion);
    n += sq_.size() * sizeof(SqEntry);
    n += sqData_.size() * sizeof(std::uint64_t);
    n += uopRing_.size() * sizeof(FetchedUop);
    n += divBusyUntil_.size() * sizeof(Cycle);
    n += tournament_.stateBytes() + btb_.metaBytes() + ras_.stateBytes();
    n += l2_.metaBytes() + l1i_.metaBytes() + l1d_.metaBytes();
    n += mem_.tableBytes();
    n += result_.output.size() +
         result_.traps.size() * sizeof(isa::TrapEvent);
    return n;
}

std::uint64_t
Core::cowStateBytes() const
{
    // The decoded text is immutable and shared outright: it is never
    // detached, so it is not counted as copied state either way.
    return mem_.contentBytes() + l2_.cowBytes() + l1i_.cowBytes() +
           l1d_.cowBytes() + btb_.cowBytes();
}

void
Core::detachAll()
{
    mem_.detachAll();
    l2_.detachAll();
    l1i_.detachAll();
    l1d_.detachAll();
    btb_.detachAll();
}

Core::Snapshot
Core::snapshot(SnapshotStats *stats, bool deep) const
{
    auto copy = std::shared_ptr<Core>(new Core(*this));
    copy->fixupAfterCopy();
    if (deep)
        copy->detachAll();
    if (stats) {
        stats->bytesCopied = deepStateBytes() + (deep ? cowStateBytes() : 0);
        stats->bytesShared = deep ? 0 : cowStateBytes();
    }
    Snapshot s;
    s.state_ = std::move(copy);
    s.cycle_ = cycle_;
    return s;
}

const Core &
Core::requireState(const Snapshot &snap)
{
    MERLIN_ASSERT(snap.valid(), "restore from an empty snapshot");
    return *snap.state_;
}

Core::Core(const isa::Program &prog, const CoreConfig &cfg,
           const Snapshot &snap, SnapshotStats *stats, bool deep)
    : Core(requireState(snap))
{
    // The program's text/data are embedded in the snapshot's memory;
    // @p prog documents provenance but cannot be cross-checked cheaply.
    (void)prog;
    fixupAfterCopy();
    MERLIN_ASSERT(cfg.numPhysIntRegs == cfg_.numPhysIntRegs &&
                      cfg.sqEntries == cfg_.sqEntries &&
                      cfg.lqEntries == cfg_.lqEntries &&
                      cfg.robEntries == cfg_.robEntries &&
                      cfg.iqEntries == cfg_.iqEntries &&
                      cfg.l1d.sizeBytes == cfg_.l1d.sizeBytes &&
                      cfg.l1i.sizeBytes == cfg_.l1i.sizeBytes &&
                      cfg.l2.sizeBytes == cfg_.l2.sizeBytes,
                  "snapshot restore with mismatched structural config");
    // Run-limit knobs are the only configuration allowed to change
    // between capture and restore (the injector tightens maxCycles).
    cfg_.maxCycles = cfg.maxCycles;
    cfg_.deadlockCycles = cfg.deadlockCycles;
    cfg_.instructionWindowEnd = cfg.instructionWindowEnd;
    if (deep)
        detachAll();
    if (stats) {
        stats->bytesCopied = deepStateBytes() + (deep ? cowStateBytes() : 0);
        stats->bytesShared = deep ? 0 : cowStateBytes();
    }
}

// ------------------------------------------------------------ state diff

bool
Core::diff(const Snapshot &snap, StateDelta &delta) const
{
    return diff(requireState(snap), delta);
}

bool
Core::stateEquals(const Snapshot &snap) const
{
    StateDelta delta;
    return diff(snap, delta) && delta.empty();
}

bool
Core::robMatches(const Core &o) const
{
    // Same head and tail (the caller checked), so liveness is per slot.
    const SeqNum live = robTailSeq_ - robHeadSeq_;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry &a = rob_[i];
        if (a == o.rob_[i])
            continue;
        // A dead slot's result copy is never read: rename resets the
        // slot before it is reused.  A live one may still write back
        // or commit, and those copies are not traced.
        if (((i - robHeadSeq_) & robMask_) < live)
            return false;
        RobEntry b = o.rob_[i];
        b.resultValue = a.resultValue;
        if (!(a == b))
            return false;
    }
    return true;
}

bool
Core::diff(const Core &o, StateDelta &delta) const
{
    // Cheapest and most-divergence-prone state first, so runs that
    // have not reconverged bail out early; the big COW arrays compare
    // last and mostly by chunk identity.
    if (cycle_ != o.cycle_ || lastCommitCycle_ != o.lastCommitCycle_ ||
        nextSeq_ != o.nextSeq_ || finished_ != o.finished_ ||
        robHeadSeq_ != o.robHeadSeq_ || robTailSeq_ != o.robTailSeq_ ||
        sqNextSeq_ != o.sqNextSeq_ || sqHeadSeq_ != o.sqHeadSeq_ ||
        lqOccupancy_ != o.lqOccupancy_ || fetchPc_ != o.fetchPc_ ||
        fetchResumeCycle_ != o.fetchResumeCycle_ ||
        fetchHalted_ != o.fetchHalted_) {
        return false;
    }
    const isa::ArchResult &r = result_;
    const isa::ArchResult &ro = o.result_;
    if (!(stats_ == o.stats_) || !r.sameUpToOutputBytes(ro))
        return false;
    if (prfReady_ != o.prfReady_ || freeList_ != o.freeList_ ||
        !std::equal(std::begin(renameMap_), std::end(renameMap_),
                    std::begin(o.renameMap_)) ||
        !std::equal(std::begin(commitMap_), std::end(commitMap_),
                    std::begin(o.commitMap_))) {
        return false;
    }
    if (sq_ != o.sq_ || !robMatches(o) || iq_ != o.iq_ ||
        !uopQueueEquals(o) || divBusyUntil_ != o.divBusyUntil_) {
        return false;
    }
    // In-flight completions: the heap's internal layout depends on
    // insertion history, so compare the two queues as multisets.
    if (completions_.size() != o.completions_.size())
        return false;
    {
        const auto drain = [](auto q) {
            std::vector<Completion> v;
            v.reserve(q.size());
            while (!q.empty()) {
                v.push_back(q.top());
                q.pop();
            }
            // top() ordering ties on (cycle, seq); break them fully.
            std::sort(v.begin(), v.end(),
                      [](const Completion &a, const Completion &b) {
                          return std::tie(a.cycle, a.seq, a.robIdx,
                                          a.gen) <
                                 std::tie(b.cycle, b.seq, b.robIdx,
                                          b.gen);
                      });
            return v;
        };
        if (drain(completions_) != drain(o.completions_))
            return false;
    }
    if (!tournament_.stateEquals(o.tournament_) ||
        !btb_.stateEquals(o.btb_) || !ras_.stateEquals(o.ras_)) {
        return false;
    }
    if (!l1d_.metaEquals(o.l1d_) || !l1i_.stateEquals(o.l1i_) ||
        !l2_.stateEquals(o.l2_) || !mem_.contentEquals(o.mem_)) {
        return false;
    }
    // Everything else matches: collect the payload differences.
    delta.words.clear();
    delta.output.clear();
    const auto payload = [&](Structure s,
                             const std::vector<std::uint64_t> &a,
                             const std::vector<std::uint64_t> &b) {
        if (a == b)
            return;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i]) {
                delta.words.push_back(StateDelta::Word{
                    s, static_cast<EntryIndex>(i), a[i] ^ b[i]});
            }
        }
    };
    payload(Structure::RegisterFile, prf_, o.prf_);
    payload(Structure::StoreQueue, sqData_, o.sqData_);
    std::vector<base::CowBytes::WordDiff> l1d;
    l1d_.diffWords(o.l1d_, l1d);
    for (const auto &w : l1d) {
        delta.words.push_back(StateDelta::Word{
            Structure::L1DCache, static_cast<EntryIndex>(w.word), w.mask});
    }
    // The output up to its last differing byte.
    const auto last = std::mismatch(r.output.rbegin(), r.output.rend(),
                                    ro.output.rbegin())
                          .first;
    delta.output.resize(static_cast<std::size_t>(r.output.rend() - last));
    for (std::size_t i = 0; i < delta.output.size(); ++i)
        delta.output[i] = r.output[i] ^ ro.output[i];
    return true;
}

// ---------------------------------------------------------------- faults

void
Core::xorEntry(Structure s, EntryIndex entry, std::uint64_t mask)
{
    switch (s) {
      case Structure::RegisterFile:
        MERLIN_ASSERT(entry < prf_.size(), "RF entry out of range");
        prf_[entry] ^= mask;
        return;
      case Structure::StoreQueue:
        MERLIN_ASSERT(entry < sqData_.size(), "SQ entry out of range");
        sqData_[entry] ^= mask;
        return;
      case Structure::L1DCache:
        l1d_.xorWord(entry, mask);
        return;
    }
    panic("bad structure");
}

void
Core::applyDelta(const StateDelta &delta)
{
    for (const StateDelta::Word &w : delta.words)
        xorEntry(w.s, w.entry, w.mask);
    MERLIN_ASSERT(delta.output.size() <= result_.output.size(),
                  "output delta past the emitted output");
    for (std::size_t i = 0; i < delta.output.size(); ++i)
        result_.output[i] ^= delta.output[i];
}

// ----------------------------------------------------------- arch state

std::uint64_t
Core::archRegValue(unsigned arch) const
{
    MERLIN_ASSERT(arch < isa::NUM_RENAMEABLE_REGS, "bad arch reg");
    return prf_[commitMap_[arch]];
}

isa::SegmentedMemory
Core::archMemoryView() const
{
    isa::SegmentedMemory view = mem_;
    l2_.applyDirtyLines(view);
    l1d_.applyDirtyLines(view);
    // Committed but undrained stores are architecturally performed.
    for (std::uint64_t s = sqHeadSeq_; s < sqNextSeq_; ++s) {
        const SqEntry &q = sq_[s % cfg_.sqEntries];
        if (q.valid && q.committed) {
            view.write(q.addr, q.size,
                       sqData_[s % cfg_.sqEntries]);
        }
    }
    return view;
}

// -------------------------------------------------------------- helpers

void
Core::addPendingRead(const RobEntry &e, Structure s, EntryIndex entry,
                     std::uint8_t ph)
{
    PendingReads &p = pending_[robSlot(e.seq)];
    MERLIN_ASSERT(p.n < 4, "pending read overflow");
    p.reads[p.n++] = PendingRead{s, entry, cycle_, ph};
}

void
Core::recordL1dMiss(const Cache::AccessResult &ar, std::uint8_t wb_phase,
                    std::uint8_t fill_phase, Rip rip, Upc upc, SeqNum seq)
{
    if (ar.hit)
        return;
    const EntryIndex first = l1d_.wordIndex(ar.set, ar.way, 0);
    const EntryIndex end = first + cfg_.l1d.wordsPerLine();
    // The dirty victim left the array before the fill overwrote it.
    if (ar.wroteBack) {
        for (EntryIndex w = first; w < end; ++w)
            probe_->read(Structure::L1DCache, w, cycle_, wb_phase, rip, upc,
                         seq, 0xff);
    }
    for (EntryIndex w = first; w < end; ++w)
        probe_->write(Structure::L1DCache, w, cycle_, fill_phase, 0xff);
}

Core::FetchedUop &
Core::uopQueueAppend(const StaticUop *su, Upc upc, bool last_uop,
                     TrapKind trap)
{
    MERLIN_ASSERT(uopCount_ < uopRing_.size(), "uop queue overflow");
    std::uint32_t tail = uopHead_ + uopCount_;
    if (tail >= uopRing_.size())
        tail -= static_cast<std::uint32_t>(uopRing_.size());
    ++uopCount_;
    // Only the fields every uop carries are written; the prediction
    // fields of a non-control uop keep whatever the slot held and are
    // never read (see FetchedUop::operator==).
    FetchedUop &f = uopRing_[tail];
    f.su = su;
    f.rip = fetchPc_;
    f.readyAt = cycle_ + cfg_.frontendDepth;
    f.upc = upc;
    f.lastUop = last_uop;
    f.fetchTrap = trap;
    f.isCtrl = false;
    return f;
}

void
Core::uopQueuePop()
{
    uopHead_ = uopHead_ + 1 == uopRing_.size() ? 0 : uopHead_ + 1;
    --uopCount_;
}

bool
Core::uopQueueEquals(const Core &o) const
{
    // Logical contents only: where the ring's head sits depends on
    // history, not on the state that decides the future.
    if (uopCount_ != o.uopCount_)
        return false;
    for (std::uint32_t i = 0; i < uopCount_; ++i) {
        if (!(uopRing_[(uopHead_ + i) % uopRing_.size()] ==
              o.uopRing_[(o.uopHead_ + i) % o.uopRing_.size()])) {
            return false;
        }
    }
    return true;
}

std::uint64_t
Core::readPhysReg(RobEntry &e, std::uint16_t preg)
{
    if (probe_)
        recordRead(e, Structure::RegisterFile, preg, phase::RegRead, 0xff);
    return prf_[preg];
}

void
Core::scheduleCompletion(RobEntry &e, Cycle when)
{
    completions_.push(Completion{when, e.seq, robSlot(e.seq), e.gen});
}

void
Core::terminate(isa::TerminateReason reason, int exit_code)
{
    result_.reason = reason;
    result_.exitCode = exit_code;
    result_.instret = stats_.instret;
    result_.uopsRetired = stats_.uopsRetired;
    finished_ = true;
}

void
Core::raiseTrapAtCommit(RobEntry &e)
{
    result_.traps.push_back(isa::TrapEvent{e.trap, e.rip});
    terminate(isa::TerminateReason::Trapped,
              128 + static_cast<int>(e.trap));
}

// ---------------------------------------------------------------- fetch

void
Core::stageFetch()
{
    if (fetchHalted_ || cycle_ < fetchResumeCycle_)
        return;
    if (uopCount_ >= kUopQueueFetchLimit)
        return;

    for (unsigned fetched = 0; fetched < cfg_.fetchWidth; ++fetched) {
        // Alignment / executable-range check: the decoded table holds
        // exactly the slots SegmentedMemory::fetch() accepts.
        const Addr text_off = fetchPc_ - isa::layout::TEXT_BASE;
        if (text_off % isa::INSN_BYTES != 0 ||
            text_off / isa::INSN_BYTES >= text_->size()) {
            uopQueueAppend(&kNoUop, 0, true, TrapKind::PcOutOfText);
            fetchHalted_ = true;
            return;
        }

        Cache::AccessResult ar = l1i_.access(fetchPc_, false);
        if (!ar.hit) {
            // Line is now resident; retry once the fill completes.
            fetchResumeCycle_ = cycle_ + ar.latency;
            return;
        }
        // The bytes the L1I hit would return are the program image's:
        // text is mapped read+exec only, so a store to it traps at
        // execute and never drains; no level ever dirties a text line
        // (Cache::flipBit does not set dirty, so an L1D flip in a text
        // line is never written back to the L2 the L1I fills from).
        // Decoding once per program is therefore exact.
        const DecodedInsn &d = (*text_)[text_off / isa::INSN_BYTES];
        if (d.numUops == 0) {
            uopQueueAppend(&kNoUop, 0, true, TrapKind::IllegalInstruction);
            fetchHalted_ = true;
            return;
        }
        const unsigned n = d.numUops;
        const Addr fall = fetchPc_ + isa::INSN_BYTES;

        // Branch prediction for control-flow macros (control uop is
        // always the last uop of its macro).
        bool is_ctrl = isa::isControlFlow(d.op);
        bool pred_taken = false;
        Addr pred_target = fall;
        bool has_pred_state = false;
        PredictionState pred_state;
        bool ras_valid = false;
        Ras::Snapshot ras_snap{0, 0};

        if (is_ctrl) {
            const StaticUop &ctrl = d.uops[n - 1];
            if (isa::isCondBranch(d.op)) {
                pred_state = tournament_.predict(fetchPc_);
                has_pred_state = true;
                pred_taken = pred_state.taken;
                pred_target = pred_taken ? d.directTarget : fall;
            } else if (d.op == Opcode::JMP || d.op == Opcode::CALL) {
                pred_taken = true;
                pred_target = d.directTarget;
            } else {
                // Indirect: JR or CALLR.
                pred_taken = true;
                if (ctrl.isReturn) {
                    ras_snap = ras_.snapshot();
                    ras_valid = true;
                    pred_target = ras_.pop();
                } else {
                    auto t = btb_.lookup(fetchPc_);
                    pred_target = t ? *t : fall;
                }
            }
            if (ctrl.isCall) {
                if (!ras_valid) {
                    ras_snap = ras_.snapshot();
                    ras_valid = true;
                }
                ras_.push(fall);
            }
        }

        for (unsigned i = 0; i < n; ++i) {
            FetchedUop &f = uopQueueAppend(&d.uops[i], static_cast<Upc>(i),
                                           i == n - 1, TrapKind::None);
            if (is_ctrl && i == n - 1) {
                f.isCtrl = true;
                f.predTaken = pred_taken;
                f.predTarget = pred_target;
                f.hasPredState = has_pred_state;
                f.predState = pred_state;
                f.rasValid = ras_valid;
                f.rasSnap = ras_snap;
            }
        }

        if (d.op == Opcode::HALT) {
            fetchHalted_ = true;
            return;
        }
        fetchPc_ = is_ctrl ? pred_target : fall;
        if (is_ctrl && pred_target != fall)
            return; // a predicted-taken branch ends the fetch group
    }
}

// --------------------------------------------------------------- rename

void
Core::stageRename()
{
    for (unsigned n = 0; n < cfg_.renameWidth && !uopQueueEmpty(); ++n) {
        const FetchedUop &f = uopQueueFront();
        if (f.readyAt > cycle_ || robFull())
            return;
        const StaticUop &su = *f.su;

        const bool is_store = su.kind == UopKind::Store;
        const bool is_load = su.kind == UopKind::Load;
        const bool needs_iq = f.fetchTrap == TrapKind::None &&
                              su.kind != UopKind::Nop &&
                              su.kind != UopKind::Halt;

        if (needs_iq && iq_.size() >= cfg_.iqEntries)
            return;
        if (is_store && sqNextSeq_ - sqHeadSeq_ >= cfg_.sqEntries)
            return;
        if (is_load && lqOccupancy_ >= cfg_.lqEntries)
            return;
        if (su.dst != isa::REG_NONE && freeList_.empty())
            return;

        const SeqNum seq = robTailSeq_++;
        RobEntry &e = robAt(seq);
        const std::uint32_t gen = e.gen + 1;
        e = RobEntry{};
        e.gen = gen;
        e.seq = seq;
        e.rip = f.rip;
        e.upc = f.upc;
        e.lastUop = f.lastUop;
        e.su = su;
        e.trap = f.fetchTrap;
        if (f.isCtrl) {
            e.isCtrl = true;
            e.predTaken = f.predTaken;
            e.predTarget = f.predTarget;
            e.hasPredState = f.hasPredState;
            e.predState = f.predState;
            e.rasValid = f.rasValid;
            e.rasSnap = f.rasSnap;
        }

        const std::uint16_t src1 =
            su.src1 != isa::REG_NONE ? renameMap_[su.src1] : NO_PREG;
        const std::uint16_t src2 =
            su.src2 != isa::REG_NONE ? renameMap_[su.src2] : NO_PREG;
        e.physSrc1 = src1;
        e.physSrc2 = src2;
        if (su.dst != isa::REG_NONE) {
            e.physDst = freeList_.back();
            freeList_.pop_back();
            e.prevPhys = renameMap_[su.dst];
            renameMap_[su.dst] = e.physDst;
            prfReady_[e.physDst] = 0;
        }

        if (is_store) {
            // The slot stays storeSeq % sqEntries: it is the SQ fault
            // entry the injector and the profiler name.
            e.storeSeq = sqNextSeq_;
            e.sqSlot = static_cast<std::int32_t>(sqNextSlot_);
            SqEntry &q = sq_[e.sqSlot];
            q = SqEntry{};
            q.valid = true;
            q.storeSeq = sqNextSeq_;
            q.seqNum = seq;
            q.rip = f.rip;
            q.upc = f.upc;
            ++sqNextSeq_;
            sqNextSlot_ = sqNextSlot_ + 1 == cfg_.sqEntries ? 0
                                                            : sqNextSlot_ + 1;
        }
        if (is_load) {
            e.isLoad = true;
            e.loadOlderStoreSeq = sqNextSeq_;
            e.loadOlderSlot = sqNextSlot_;
            ++lqOccupancy_;
        }
        if (probe_)
            pending_[robSlot(seq)].n = 0;

        if (needs_iq)
            iq_.push_back(IqEntry{robSlot(seq), src1, src2, su.kind});
        else
            e.done = true;

        uopQueuePop();
    }
}

// ---------------------------------------------------------------- issue

bool
Core::loadBlocked(const RobEntry &e, Addr addr, unsigned size,
                  bool &can_forward, std::uint64_t &fwd_value,
                  std::uint32_t &fwd_slot)
{
    can_forward = false;
    // Scan older stores youngest-first; the closest overlap decides.
    std::uint32_t slot = e.loadOlderSlot;
    for (std::uint64_t s = e.loadOlderStoreSeq; s-- > sqHeadSeq_;) {
        slot = slot == 0 ? cfg_.sqEntries - 1 : slot - 1;
        const SqEntry &q = sq_[slot];
        if (!q.valid)
            continue; // squash hole (only transiently possible)
        if (!q.addrReady)
            return true; // unknown older address: conservative block
        const bool overlap =
            q.addr < addr + size && addr < q.addr + q.size;
        if (!overlap)
            continue;
        if (!q.dataReady)
            return true;
        const bool contained =
            addr >= q.addr && addr + size <= q.addr + q.size;
        if (!contained)
            return true; // partial overlap: wait for drain
        const unsigned offset = static_cast<unsigned>(addr - q.addr);
        // Physical consumption of the SQ data field — recorded even
        // when the caller is only probing issue eligibility (a
        // conservative over-report; see uarch/probe.hh).
        if (probe_) {
            probe_->physicalRead(Structure::StoreQueue, slot, cycle_,
                                 byteMask(offset, size));
        }
        std::uint64_t v = sqData_[slot] >> (offset * 8);
        if (size < 8)
            v &= (1ULL << (size * 8)) - 1;
        fwd_value = v;
        fwd_slot = slot;
        can_forward = true;
        return false;
    }
    return false;
}

void
Core::executeUop(RobEntry &e)
{
    const StaticUop &su = e.su;
    switch (su.kind) {
      case UopKind::Alu:
      case UopKind::Mul:
      case UopKind::Div: {
        std::uint64_t a = 0;
        std::uint64_t b;
        if (e.physSrc1 != NO_PREG)
            a = readPhysReg(e, e.physSrc1);
        if (e.physSrc2 != NO_PREG) {
            b = readPhysReg(e, e.physSrc2);
        } else if (su.base == Opcode::MOVHI) {
            b = static_cast<std::uint32_t>(su.imm);
        } else {
            b = static_cast<std::uint64_t>(su.imm);
        }
        isa::AluResult r = isa::aluCompute(su.base, a, b);
        if (r.divByZero)
            e.trap = TrapKind::DivZero;
        e.resultValue = r.value;
        const unsigned lat = su.kind == UopKind::Alu ? cfg_.aluLatency
                             : su.kind == UopKind::Mul ? cfg_.mulLatency
                                                       : cfg_.divLatency;
        scheduleCompletion(e, cycle_ + lat);
        break;
      }

      case UopKind::Branch: {
        const std::uint64_t a = readPhysReg(e, e.physSrc1);
        const std::uint64_t b = readPhysReg(e, e.physSrc2);
        e.actualTaken = isa::branchTaken(su.base, a, b);
        e.actualTarget = e.actualTaken
                             ? static_cast<std::uint32_t>(su.imm)
                             : e.rip + isa::INSN_BYTES;
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Jump: {
        e.actualTaken = true;
        if (su.base == Opcode::JMP) {
            e.actualTarget = static_cast<std::uint32_t>(su.imm);
        } else {
            e.actualTarget = readPhysReg(e, e.physSrc1);
        }
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Load: {
        ++stats_.loadsExecuted;
        const Addr addr = prf_[e.physSrc1] + su.imm;
        if (probe_) {
            recordRead(e, Structure::RegisterFile, e.physSrc1,
                       phase::RegRead, 0xff);
        }
        const TrapKind t = mem_.check(addr, su.memSize, false);
        if (t != TrapKind::None) {
            e.trap = t;
            scheduleCompletion(e, cycle_ + 1);
            break;
        }
        bool can_forward = false;
        std::uint64_t value = 0;
        std::uint32_t fwd_slot = 0;
        const bool blocked =
            loadBlocked(e, addr, su.memSize, can_forward, value, fwd_slot);
        MERLIN_ASSERT(!blocked, "blocked load reached execute");
        Cycle done_at;
        if (can_forward) {
            ++stats_.storeForwards;
            // loadBlocked() recorded the physical read.
            if (probe_) {
                addPendingRead(e, Structure::StoreQueue, fwd_slot,
                               phase::SqForwardRead);
            }
            done_at = cycle_ + cfg_.forwardLatency;
        } else {
            Cache::AccessResult ar = l1d_.access(addr, false);
            const std::uint32_t off = static_cast<std::uint32_t>(
                addr & (cfg_.l1d.lineSize - 1));
            value = l1d_.readBytes(ar.set, ar.way, off, su.memSize);
            if (probe_) {
                recordL1dMiss(ar, phase::L1dIssueWbRead,
                              phase::L1dIssueWrite, e.rip, e.upc, e.seq);
                recordRead(e, Structure::L1DCache,
                           l1d_.wordIndex(ar.set, ar.way, off),
                           phase::L1dLoadRead,
                           byteMask(off % 8, su.memSize));
            }
            done_at = cycle_ + ar.latency;
            ar.hit ? ++stats_.l1dHits : ++stats_.l1dMisses;
        }
        if (su.loadSigned) {
            value = static_cast<std::uint64_t>(
                signExtend(value, su.memSize * 8));
        }
        e.resultValue = value;
        scheduleCompletion(e, done_at);
        break;
      }

      case UopKind::Store: {
        const Addr addr = readPhysReg(e, e.physSrc1) + su.imm;
        const std::uint64_t data = readPhysReg(e, e.physSrc2);
        SqEntry &q = sq_[e.sqSlot];
        const TrapKind t = mem_.check(addr, su.memSize, true);
        if (t != TrapKind::None) {
            e.trap = t;
        } else {
            q.addr = addr;
            q.size = su.memSize;
            q.addrReady = true;
            sqData_[e.sqSlot] = data;
            q.dataReady = true;
            if (probe_) {
                probe_->write(Structure::StoreQueue,
                              static_cast<EntryIndex>(e.sqSlot), cycle_,
                              phase::SqWrite, 0xff);
            }
        }
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Out: {
        // OUT has no destination register: its value waits in
        // resultValue and commits architecturally.
        e.resultValue = readPhysReg(e, e.physSrc2);
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Trap: {
        const std::uint64_t a = readPhysReg(e, e.physSrc1);
        if (a != 0)
            e.trap = TrapKind::DetectedError;
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      default:
        panic("executeUop: unexpected uop kind");
    }
}

void
Core::stageIssue()
{
    unsigned issued = 0;
    unsigned alu_used = 0;
    unsigned complex_used = 0;
    unsigned mem_used = 0;

    for (auto it = iq_.begin();
         it != iq_.end() && issued < cfg_.issueWidth;) {
        const bool ready =
            (it->src1 == NO_PREG || prfReady_[it->src1]) &&
            (it->src2 == NO_PREG || prfReady_[it->src2]);
        if (!ready) {
            ++it;
            continue;
        }
        // Functional-unit availability.
        unsigned div_unit = 0;
        switch (it->kind) {
          case UopKind::Alu:
          case UopKind::Branch:
          case UopKind::Jump:
          case UopKind::Out:
          case UopKind::Trap:
            if (alu_used >= cfg_.intAluCount) {
                ++it;
                continue;
            }
            break;
          case UopKind::Mul:
            if (complex_used >= cfg_.complexCount) {
                ++it;
                continue;
            }
            break;
          case UopKind::Div: {
            bool found = false;
            if (complex_used < cfg_.complexCount) {
                for (unsigned u = 0; u < divBusyUntil_.size(); ++u) {
                    if (divBusyUntil_[u] <= cycle_) {
                        div_unit = u;
                        found = true;
                        break;
                    }
                }
            }
            if (!found) {
                ++it;
                continue;
            }
            break;
          }
          case UopKind::Load:
          case UopKind::Store:
            if (mem_used >= cfg_.memPorts) {
                ++it;
                continue;
            }
            break;
          default:
            break;
        }

        // Memory-ordering check for loads (no pending reads recorded on
        // a blocked attempt; the final successful issue records them).
        RobEntry &e = rob_[it->robIdx];
        if (it->kind == UopKind::Load) {
            const Addr addr = prf_[e.physSrc1] + e.su.imm;
            // Scheduling read: the register value decides whether the
            // load can issue this cycle, so it is physically consumed
            // even when the load ends up blocked.
            if (probe_) {
                probe_->physicalRead(Structure::RegisterFile, e.physSrc1,
                                     cycle_, 0xff);
            }
            if (mem_.check(addr, e.su.memSize, false) == TrapKind::None) {
                bool fwd = false;
                std::uint64_t v = 0;
                std::uint32_t slot = 0;
                if (loadBlocked(e, addr, e.su.memSize, fwd, v, slot)) {
                    ++it;
                    continue;
                }
            }
        }

        executeUop(e);
        switch (e.su.kind) {
          case UopKind::Mul:
            ++complex_used;
            break;
          case UopKind::Div:
            ++complex_used;
            divBusyUntil_[div_unit] = cycle_ + cfg_.divLatency;
            break;
          case UopKind::Load:
          case UopKind::Store:
            ++mem_used;
            break;
          default:
            ++alu_used;
            break;
        }
        ++issued;
        it = iq_.erase(it);
    }
}

// ------------------------------------------------------------ writeback

void
Core::squashAfter(SeqNum branch_seq, Addr redirect_to)
{
    ++stats_.squashes;
    for (SeqNum s = robTailSeq_; s-- > branch_seq + 1;) {
        RobEntry &e = robAt(s);
        ++e.gen; // invalidate in-flight completions
        if (e.physDst != NO_PREG) {
            renameMap_[e.su.dst] = e.prevPhys;
            freeList_.push_back(e.physDst);
        }
        if (e.sqSlot >= 0) {
            sq_[e.sqSlot].valid = false;
            sqNextSeq_ = e.storeSeq;
            sqNextSlot_ = static_cast<std::uint32_t>(e.sqSlot);
        }
        if (e.isLoad)
            --lqOccupancy_;
    }
    robTailSeq_ = branch_seq + 1;

    // Drop squashed entries from the issue queue.
    std::erase_if(iq_, [&](const IqEntry &q) {
        return rob_[q.robIdx].seq > branch_seq;
    });

    // Repair speculative predictor state.
    RobEntry &b = robAt(branch_seq);
    if (b.hasPredState)
        tournament_.repairHistory(b.predState, b.actualTaken);
    if (b.rasValid) {
        ras_.restore(b.rasSnap);
        if (b.su.isCall)
            ras_.push(b.rip + isa::INSN_BYTES);
        else if (b.su.isReturn)
            ras_.pop();
    }

    fetchPc_ = redirect_to;
    fetchResumeCycle_ = cycle_ + cfg_.redirectPenalty;
    fetchHalted_ = false;
    uopCount_ = 0;
}

void
Core::stageWriteback()
{
    while (!completions_.empty() && completions_.top().cycle <= cycle_) {
        const Completion c = completions_.top();
        completions_.pop();
        RobEntry &e = rob_[c.robIdx];
        if (e.gen != c.gen)
            continue; // squashed

        if (e.physDst != NO_PREG) {
            prf_[e.physDst] = e.resultValue;
            prfReady_[e.physDst] = 1;
            if (probe_) {
                probe_->write(Structure::RegisterFile, e.physDst, cycle_,
                              phase::RegWrite, 0xff);
            }
        }
        e.done = true;

        if (e.isCtrl && e.actualTarget != e.predTarget) {
            ++stats_.branchMispredicts;
            squashAfter(e.seq, e.actualTarget);
        }
    }
}

// --------------------------------------------------------------- commit

void
Core::stageDrainStores()
{
    if (sqHeadSeq_ >= sqNextSeq_)
        return;
    const std::uint32_t slot = sqHeadSlot_;
    SqEntry &q = sq_[slot];
    MERLIN_ASSERT(q.valid, "invalid store at SQ head");
    if (!q.committed)
        return;

    Cache::AccessResult ar = l1d_.access(q.addr, true);
    const std::uint32_t off =
        static_cast<std::uint32_t>(q.addr & (cfg_.l1d.lineSize - 1));
    l1d_.writeBytes(ar.set, ar.way, off, q.size, sqData_[slot]);
    if (probe_) {
        recordL1dMiss(ar, phase::L1dDrainWbRead, phase::L1dDrainWrite,
                      q.rip, q.upc, q.seqNum);
        // Draining reads the low q.size bytes of the SQ data field one
        // last time, and overwrites those bytes of one L1D word.
        probe_->read(Structure::StoreQueue, slot, cycle_,
                     phase::SqDrainRead, q.rip, q.upc, q.seqNum,
                     byteMask(0, q.size));
        probe_->write(Structure::L1DCache,
                      l1d_.wordIndex(ar.set, ar.way, off), cycle_,
                      phase::L1dDrainWrite, byteMask(off % 8, q.size));
    }
    q.valid = false;
    ++sqHeadSeq_;
    sqHeadSlot_ = sqHeadSlot_ + 1 == cfg_.sqEntries ? 0 : sqHeadSlot_ + 1;
}

void
Core::stageCommit()
{
    for (unsigned n = 0; n < cfg_.commitWidth && !robEmpty(); ++n) {
        RobEntry &e = robAt(robHeadSeq_);
        if (!e.done)
            return;

        if (e.trap != TrapKind::None) {
            raiseTrapAtCommit(e);
            return;
        }
        if (e.su.kind == UopKind::Halt) {
            ++stats_.instret;
            ++stats_.uopsRetired;
            terminate(isa::TerminateReason::Halted,
                      static_cast<int>(e.su.imm));
            return;
        }

        if (probe_) {
            const PendingReads &pr = pending_[robSlot(e.seq)];
            for (unsigned i = 0; i < pr.n; ++i) {
                const PendingRead &p = pr.reads[i];
                probe_->committedRead(p.s, p.entry, p.cycle, p.phase,
                                      e.rip, e.upc, e.seq);
            }
        }

        if (e.su.kind == UopKind::Out) {
            std::uint8_t buf[8];
            storeLE(buf, e.resultValue, 8);
            result_.output.insert(result_.output.end(), buf,
                                  buf + e.su.memSize);
        }
        if (e.su.kind == UopKind::Store)
            sq_[e.sqSlot].committed = true;
        if (e.isLoad)
            --lqOccupancy_;

        if (e.physDst != NO_PREG) {
            if (e.prevPhys != NO_PREG)
                freeList_.push_back(e.prevPhys);
            commitMap_[e.su.dst] = e.physDst;
        }

        if (e.isCtrl) {
            if (e.hasPredState) {
                ++stats_.condBranches;
                tournament_.update(e.rip, e.actualTaken, e.predState);
                if (probe_)
                    probe_->branch(e.rip, e.actualTaken, e.seq);
            } else if (e.su.base == Opcode::JR) {
                btb_.update(e.rip, e.actualTarget);
            }
        }

        ++stats_.uopsRetired;
        if (e.lastUop) {
            ++stats_.instret;
            if (cfg_.instructionWindowEnd != 0 &&
                stats_.instret >= cfg_.instructionWindowEnd) {
                ++robHeadSeq_;
                lastCommitCycle_ = cycle_;
                terminate(isa::TerminateReason::WindowEnd, 0);
                return;
            }
        }

        ++robHeadSeq_;
        lastCommitCycle_ = cycle_;
    }
}

// ----------------------------------------------------------------- tick

bool
Core::tick()
{
    if (finished_)
        return false;
    if (cycle_ >= cfg_.maxCycles) {
        terminate(isa::TerminateReason::CycleLimit, -1);
        return false;
    }
    if (cycle_ - lastCommitCycle_ > cfg_.deadlockCycles) {
        terminate(isa::TerminateReason::Deadlock, -1);
        return false;
    }

    stageCommit();
    if (finished_) {
        stats_.cycles = cycle_;
        return false;
    }
    stageDrainStores();
    stageWriteback();
    stageIssue();
    stageRename();
    stageFetch();

    ++cycle_;
    stats_.cycles = cycle_;
    return true;
}

isa::ArchResult
Core::run()
{
    while (tick()) {
    }
    return result_;
}

std::string
CoreConfig::summary() const
{
    std::string s = "OoO x" + std::to_string(issueWidth);
    s += " RF=" + std::to_string(numPhysIntRegs);
    s += " SQ=" + std::to_string(sqEntries);
    s += " LQ=" + std::to_string(lqEntries);
    s += " ROB=" + std::to_string(robEntries);
    s += " IQ=" + std::to_string(iqEntries);
    s += " L1D=" + std::to_string(l1d.sizeBytes / 1024) + "KB";
    s += " L1I=" + std::to_string(l1i.sizeBytes / 1024) + "KB";
    s += " L2=" + std::to_string(l2.sizeBytes / 1024) + "KB";
    return s;
}

} // namespace merlin::uarch
