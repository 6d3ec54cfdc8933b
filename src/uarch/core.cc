#include "uarch/core.hh"

#include <algorithm>
#include <bit>
#include <iterator>
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
    robCtrl_.assign(rob_.size(), RobCtrl{});
    robMask_ = rob_.size() - 1;
    if (probe_)
        pending_.assign(rob_.size(), PendingReads{});
    robWords_ = static_cast<std::uint32_t>((rob_.size() + 63) / 64);
    iqMask_.assign(robWords_, 0);
    readyMask_.assign(robWords_, 0);
    waiters_.assign(std::size_t(cfg_.numPhysIntRegs) * robWords_, 0);
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
            // The control uop is always the last uop of its macro.
            const StaticUop &ctrl = d.uops[d.numUops - 1];
            if (isa::isCondBranch(d.op))
                d.ctrl = CtrlKind::Cond;
            else if (d.op == Opcode::JMP || d.op == Opcode::CALL)
                d.ctrl = CtrlKind::Direct;
            else if (isa::isControlFlow(d.op))
                d.ctrl = ctrl.isReturn ? CtrlKind::Return : CtrlKind::Indirect;
            d.isCall = d.ctrl != CtrlKind::None && ctrl.isCall;
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
    n += rob_.size() * (sizeof(RobEntry) + sizeof(RobCtrl));
    n += pending_.size() * sizeof(PendingReads);
    n += (iqMask_.size() + readyMask_.size() + waiters_.size()) *
         sizeof(std::uint64_t);
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
        // A control slot's prediction and outcome sit in robCtrl_; a
        // non-control slot's are blank, so they never differ there.
        if (a.isCtrl && !(robCtrl_[i] == o.robCtrl_[i]))
            return false;
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
    if (sq_ != o.sq_ || !robMatches(o) || iqMask_ != o.iqMask_ ||
        !uopQueueEquals(o) || divBusyUntil_ != o.divBusyUntil_) {
        return false;
    }
    // In-flight completions are kept fully sorted, so equal multisets
    // are equal vectors.
    if (completions_ != o.completions_)
        return false;
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

inline Core::FetchedUop &
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

inline std::uint64_t
Core::readPhysReg(RobEntry &e, std::uint16_t preg)
{
    if (probe_)
        recordRead(e, Structure::RegisterFile, preg, phase::RegRead, 0xff);
    return prf_[preg];
}

inline void
Core::scheduleCompletion(const RobEntry &e, Cycle when)
{
    // Most completions are due within a few cycles: sink the new one
    // from the back past the few that are due earlier.
    const Completion c{when, e.seq, robSlot(e.seq), e.gen};
    completions_.push_back(c);
    auto pos = completions_.end() - 1;
    for (; pos != completions_.begin() && *(pos - 1) < c; --pos)
        *pos = *(pos - 1);
    *pos = c;
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

        const Addr line = fetchPc_ & ~Addr(cfg_.l1i.lineSize - 1);
        if (line == l1iLine_) {
            l1i_.touchHit(l1iSet_, l1iWay_);
        } else {
            const Cache::AccessResult ar = l1i_.access(fetchPc_, false);
            l1iLine_ = line;
            l1iSet_ = ar.set;
            l1iWay_ = ar.way;
            if (!ar.hit) {
                // Line is now resident; retry once the fill completes.
                fetchResumeCycle_ = cycle_ + ar.latency;
                return;
            }
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
        const unsigned last = d.numUops - 1u;
        for (unsigned i = 0; i < last; ++i) {
            uopQueueAppend(&d.uops[i], static_cast<Upc>(i), false,
                           TrapKind::None);
        }
        FetchedUop &f = uopQueueAppend(&d.uops[last], static_cast<Upc>(last),
                                       true, TrapKind::None);
        const Addr fall = fetchPc_ + isa::INSN_BYTES;
        if (d.ctrl == CtrlKind::None) {
            if (d.op == Opcode::HALT) {
                fetchHalted_ = true;
                return;
            }
            fetchPc_ = fall;
            continue;
        }

        // Branch prediction, attached to the control uop.
        f.isCtrl = true;
        Prediction &p = f.pred;
        p = Prediction{};
        p.taken = true;
        switch (d.ctrl) {
          case CtrlKind::Cond:
            p.state = tournament_.predict(fetchPc_);
            p.hasState = true;
            p.taken = p.state.taken;
            p.target = p.taken ? d.directTarget : fall;
            break;
          case CtrlKind::Direct:
            p.target = d.directTarget;
            break;
          case CtrlKind::Return:
            p.rasSnap = ras_.snapshot();
            p.rasValid = true;
            p.target = ras_.pop();
            break;
          default: {
            const auto t = btb_.lookup(fetchPc_);
            p.target = t ? *t : fall;
            break;
          }
        }
        if (d.isCall) {
            if (!p.rasValid) {
                p.rasSnap = ras_.snapshot();
                p.rasValid = true;
            }
            ras_.push(fall);
        }
        fetchPc_ = p.target;
        if (p.target != fall)
            return; // a predicted-taken branch ends the fetch group
    }
}

// --------------------------------------------------------------- rename

void
Core::stageRename()
{
    // The queue's head advances locally and is stored once at the end.
    const auto ring = static_cast<std::uint32_t>(uopRing_.size());
    std::uint32_t head = uopHead_;
    std::uint32_t count = uopCount_;
    for (unsigned n = 0; n < cfg_.renameWidth && count != 0; ++n) {
        const FetchedUop &f = uopRing_[head];
        if (f.readyAt > cycle_ || robFull())
            break;
        const StaticUop &su = *f.su;

        const bool is_store = su.kind == UopKind::Store;
        const bool is_load = su.kind == UopKind::Load;
        const bool needs_iq = f.fetchTrap == TrapKind::None &&
                              su.kind != UopKind::Nop &&
                              su.kind != UopKind::Halt;

        if (needs_iq && iqCount_ >= cfg_.iqEntries)
            break;
        if (is_store && sqNextSeq_ - sqHeadSeq_ >= cfg_.sqEntries)
            break;
        if (is_load && lqOccupancy_ >= cfg_.lqEntries)
            break;
        if (su.dst != isa::REG_NONE && freeList_.empty())
            break;

        const SeqNum seq = robTailSeq_++;
        const std::uint32_t slot = robSlot(seq);
        RobEntry &e = rob_[slot];
        RobEntry r;
        r.seq = seq;
        r.rip = f.rip;
        r.su.p = f.su;
        r.gen = e.gen + 1;
        r.upc = f.upc;
        r.lastUop = f.lastUop;
        r.trap = f.fetchTrap;
        r.isCtrl = f.isCtrl;
        r.kind = su.kind;
        if (su.src1 != isa::REG_NONE)
            r.physSrc1 = renameMap_[su.src1];
        if (su.src2 != isa::REG_NONE)
            r.physSrc2 = renameMap_[su.src2];
        if (su.dst != isa::REG_NONE) {
            r.physDst = freeList_.back();
            freeList_.pop_back();
            r.prevPhys = renameMap_[su.dst];
            renameMap_[su.dst] = r.physDst;
            prfReady_[r.physDst] = 0;
        }
        if (f.isCtrl)
            robCtrl_[slot] = RobCtrl{f.pred, 0, false};

        if (is_store) {
            // The slot stays storeSeq % sqEntries: it is the SQ fault
            // entry the injector and the profiler name.
            r.memSeq = sqNextSeq_;
            r.memSlot = sqNextSlot_;
            SqEntry &q = sq_[sqNextSlot_];
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
            r.memSeq = sqNextSeq_;
            r.memSlot = sqNextSlot_;
            ++lqOccupancy_;
        }
        if (probe_)
            pending_[slot].n = 0;

        r.done = !needs_iq;
        e = r;
        if (needs_iq)
            iqInsert(slot, e);

        head = head + 1 == ring ? 0 : head + 1;
        --count;
    }
    uopHead_ = head;
    uopCount_ = count;
}

inline void
Core::iqInsert(std::uint32_t slot, const RobEntry &e)
{
    const std::uint32_t w = slot >> 6;
    const std::uint64_t bit = 1ULL << (slot & 63);
    iqMask_[w] |= bit;
    ++iqCount_;
    bool ready = true;
    for (const std::uint16_t p : {e.physSrc1, e.physSrc2}) {
        if (p != NO_PREG && !prfReady_[p]) {
            waiters_[std::size_t(p) * robWords_ + w] |= bit;
            ready = false;
        }
    }
    if (ready)
        readyMask_[w] |= bit;
}

inline void
Core::wake(std::uint16_t preg)
{
    std::uint64_t *row = &waiters_[std::size_t(preg) * robWords_];
    for (std::uint32_t w = 0; w < robWords_; ++w) {
        if (row[w] == 0)
            continue;
        // Bits of slots that left the queue since are stale: skip them.
        std::uint64_t bits = row[w] & iqMask_[w];
        row[w] = 0;
        for (; bits != 0; bits &= bits - 1) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            if (sourcesReady(rob_[(w << 6) | b]))
                readyMask_[w] |= 1ULL << b;
        }
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
    std::uint32_t slot = e.memSlot;
    for (std::uint64_t s = e.memSeq; s-- > sqHeadSeq_;) {
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
    const StaticUop &su = *e.su;
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
        // Branch and jump uops always end a control macro (isCtrl).
        RobCtrl &c = robCtrl_[robSlot(e.seq)];
        const std::uint64_t a = readPhysReg(e, e.physSrc1);
        const std::uint64_t b = readPhysReg(e, e.physSrc2);
        c.actualTaken = isa::branchTaken(su.base, a, b);
        c.actualTarget = c.actualTaken
                             ? static_cast<std::uint32_t>(su.imm)
                             : e.rip + isa::INSN_BYTES;
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Jump: {
        RobCtrl &c = robCtrl_[robSlot(e.seq)];
        c.actualTaken = true;
        if (su.base == Opcode::JMP) {
            c.actualTarget = static_cast<std::uint32_t>(su.imm);
        } else {
            c.actualTarget = readPhysReg(e, e.physSrc1);
        }
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Store: {
        const Addr addr = readPhysReg(e, e.physSrc1) + su.imm;
        const std::uint64_t data = readPhysReg(e, e.physSrc2);
        SqEntry &q = sq_[e.memSlot];
        const TrapKind t = mem_.check(addr, su.memSize, true);
        if (t != TrapKind::None) {
            e.trap = t;
        } else {
            q.addr = addr;
            q.size = su.memSize;
            q.addrReady = true;
            sqData_[e.memSlot] = data;
            q.dataReady = true;
            if (probe_) {
                probe_->write(Structure::StoreQueue,
                              static_cast<EntryIndex>(e.memSlot), cycle_,
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
Core::executeLoad(RobEntry &e, const LoadIssue &li)
{
    const StaticUop &su = *e.su;
    ++stats_.loadsExecuted;
    if (probe_) {
        recordRead(e, Structure::RegisterFile, e.physSrc1, phase::RegRead,
                   0xff);
    }
    if (li.trap != TrapKind::None) {
        e.trap = li.trap;
        scheduleCompletion(e, cycle_ + 1);
        return;
    }
    std::uint64_t value = li.value;
    Cycle done_at;
    if (li.forward) {
        ++stats_.storeForwards;
        if (probe_) {
            // Execute consumes the forwarded SQ data field once more
            // than issue's eligibility scan did: repeat the scan (the
            // SQ is unchanged since) so the probe sees both reads.
            bool fwd = false;
            std::uint64_t v = 0;
            std::uint32_t slot = 0;
            loadBlocked(e, li.addr, su.memSize, fwd, v, slot);
            addPendingRead(e, Structure::StoreQueue, li.slot,
                           phase::SqForwardRead);
        }
        done_at = cycle_ + cfg_.forwardLatency;
    } else {
        Cache::AccessResult ar = l1d_.access(li.addr, false);
        const std::uint32_t off = static_cast<std::uint32_t>(
            li.addr & (cfg_.l1d.lineSize - 1));
        value = l1d_.readBytes(ar.set, ar.way, off, su.memSize);
        if (probe_) {
            recordL1dMiss(ar, phase::L1dIssueWbRead, phase::L1dIssueWrite,
                          e.rip, e.upc, e.seq);
            recordRead(e, Structure::L1DCache,
                       l1d_.wordIndex(ar.set, ar.way, off),
                       phase::L1dLoadRead, byteMask(off % 8, su.memSize));
        }
        done_at = cycle_ + ar.latency;
        ar.hit ? ++stats_.l1dHits : ++stats_.l1dMisses;
    }
    if (su.loadSigned) {
        value =
            static_cast<std::uint64_t>(signExtend(value, su.memSize * 8));
    }
    e.resultValue = value;
    scheduleCompletion(e, done_at);
}

void
Core::stageIssue()
{
    unsigned issued = 0;
    unsigned alu_used = 0;
    unsigned complex_used = 0;
    unsigned mem_used = 0;

    // Ready uops in program order: readyMask_ from the head slot on,
    // wrapping once around the ring to the slots below it.
    const std::uint32_t head = robSlot(robHeadSeq_);
    const std::uint32_t head_word = head >> 6;
    const std::uint64_t below_head = (1ULL << (head & 63)) - 1;
    for (std::uint32_t k = 0; k <= robWords_ && issued < cfg_.issueWidth;
         ++k) {
        const std::uint32_t w = (head_word + k) & (robWords_ - 1);
        std::uint64_t bits = readyMask_[w];
        if (k == 0)
            bits &= ~below_head;
        else if (k == robWords_)
            bits &= below_head;
        for (; bits != 0 && issued < cfg_.issueWidth; bits &= bits - 1) {
            const std::uint32_t slot =
                (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
            RobEntry &e = rob_[slot];
            const UopKind kind = e.kind;

            // Functional-unit availability.
            unsigned div_unit = 0;
            bool unit_free = true;
            switch (kind) {
              case UopKind::Mul:
                unit_free = complex_used < cfg_.complexCount;
                break;
              case UopKind::Div:
                unit_free = false;
                if (complex_used < cfg_.complexCount) {
                    for (unsigned u = 0; u < divBusyUntil_.size(); ++u) {
                        if (divBusyUntil_[u] <= cycle_) {
                            div_unit = u;
                            unit_free = true;
                            break;
                        }
                    }
                }
                break;
              case UopKind::Load:
              case UopKind::Store:
                unit_free = mem_used < cfg_.memPorts;
                break;
              default: // Alu, Branch, Jump, Out, Trap
                unit_free = alu_used < cfg_.intAluCount;
                break;
            }
            if (!unit_free)
                continue;

            switch (kind) {
              case UopKind::Load: {
                // Memory-ordering check (no pending reads recorded on a
                // blocked attempt; the final successful issue records
                // them).
                LoadIssue li;
                li.addr = prf_[e.physSrc1] + e.su->imm;
                // Scheduling read: the register value decides whether
                // the load can issue this cycle, so it is physically
                // consumed even when the load ends up blocked.
                if (probe_) {
                    probe_->physicalRead(Structure::RegisterFile,
                                         e.physSrc1, cycle_, 0xff);
                }
                li.trap = mem_.check(li.addr, e.su->memSize, false);
                if (li.trap == TrapKind::None &&
                    loadBlocked(e, li.addr, e.su->memSize, li.forward,
                                li.value, li.slot)) {
                    continue;
                }
                executeLoad(e, li);
                ++mem_used;
                break;
              }
              case UopKind::Store:
                executeUop(e);
                ++mem_used;
                break;
              case UopKind::Mul:
                executeUop(e);
                ++complex_used;
                break;
              case UopKind::Div:
                executeUop(e);
                ++complex_used;
                divBusyUntil_[div_unit] = cycle_ + cfg_.divLatency;
                break;
              default:
                executeUop(e);
                ++alu_used;
                break;
            }
            iqRemove(slot);
            ++issued;
        }
    }
}

// ------------------------------------------------------------ writeback

void
Core::squashAfter(SeqNum branch_seq, Addr redirect_to)
{
    ++stats_.squashes;
    for (SeqNum s = robTailSeq_; s-- > branch_seq + 1;) {
        const std::uint32_t slot = robSlot(s);
        RobEntry &e = rob_[slot];
        ++e.gen; // invalidate in-flight completions
        if (iqMask_[slot >> 6] & (1ULL << (slot & 63)))
            iqRemove(slot);
        if (e.physDst != NO_PREG) {
            renameMap_[e.su->dst] = e.prevPhys;
            freeList_.push_back(e.physDst);
        }
        if (e.kind == UopKind::Store) {
            sq_[e.memSlot].valid = false;
            sqNextSeq_ = e.memSeq;
            sqNextSlot_ = e.memSlot;
        }
        if (e.kind == UopKind::Load)
            --lqOccupancy_;
    }
    robTailSeq_ = branch_seq + 1;

    // Repair speculative predictor state.
    const RobEntry &b = robAt(branch_seq);
    const RobCtrl &bc = robCtrl_[robSlot(branch_seq)];
    if (bc.pred.hasState)
        tournament_.repairHistory(bc.pred.state, bc.actualTaken);
    if (bc.pred.rasValid) {
        ras_.restore(bc.pred.rasSnap);
        if (b.su->isCall)
            ras_.push(b.rip + isa::INSN_BYTES);
        else if (b.su->isReturn)
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
    while (!completions_.empty() && completions_.back().cycle <= cycle_) {
        const Completion c = completions_.back();
        completions_.pop_back();
        RobEntry &e = rob_[c.robIdx];
        if (e.gen != c.gen)
            continue; // squashed

        if (e.physDst != NO_PREG) {
            prf_[e.physDst] = e.resultValue;
            prfReady_[e.physDst] = 1;
            wake(e.physDst);
            if (probe_) {
                probe_->write(Structure::RegisterFile, e.physDst, cycle_,
                              phase::RegWrite, 0xff);
            }
        }
        e.done = true;

        if (e.isCtrl) {
            const RobCtrl &ctrl = robCtrl_[c.robIdx];
            if (ctrl.actualTarget != ctrl.pred.target) {
                ++stats_.branchMispredicts;
                squashAfter(e.seq, ctrl.actualTarget);
            }
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
        const StaticUop &su = *e.su;
        if (su.kind == UopKind::Halt) {
            ++stats_.instret;
            ++stats_.uopsRetired;
            terminate(isa::TerminateReason::Halted,
                      static_cast<int>(su.imm));
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

        if (su.kind == UopKind::Out) {
            std::uint8_t buf[8];
            storeLE(buf, e.resultValue, 8);
            result_.output.insert(result_.output.end(), buf,
                                  buf + su.memSize);
        }
        if (su.kind == UopKind::Store)
            sq_[e.memSlot].committed = true;
        if (su.kind == UopKind::Load)
            --lqOccupancy_;

        if (e.physDst != NO_PREG) {
            if (e.prevPhys != NO_PREG)
                freeList_.push_back(e.prevPhys);
            commitMap_[su.dst] = e.physDst;
        }

        if (e.isCtrl) {
            const RobCtrl &c = robCtrl_[robSlot(e.seq)];
            if (c.pred.hasState) {
                ++stats_.condBranches;
                tournament_.update(e.rip, c.actualTaken, c.pred.state);
                if (probe_)
                    probe_->branch(e.rip, c.actualTaken, e.seq);
            } else if (su.base == Opcode::JR) {
                btb_.update(e.rip, c.actualTarget);
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
