#include "uarch/core.hh"

#include <algorithm>
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

Core::Core(const isa::Program &prog, const CoreConfig &cfg, Probe *probe)
    : cfg_(cfg),
      probe_(probe),
      mem_(prog.buildMemory(cfg.memChunkBytes)),
      l2_("l2", cfg.l2, nullptr, &mem_, cfg.memChunkBytes),
      l1i_("l1i", cfg.l1i, &l2_, nullptr, cfg.memChunkBytes),
      l1d_("l1d", cfg.l1d, &l2_, nullptr, cfg.memChunkBytes),
      tournament_(cfg),
      btb_(cfg.btbEntries),
      ras_(cfg.rasEntries),
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
        for (unsigned i = 0; i < isa::NUM_RENAMEABLE_REGS; ++i)
            probe_->onWrite(Structure::RegisterFile, i, 0, phase::Init);
        l1dSink_.core = this;
        l1d_.setEventSink(&l1dSink_);
    }
    freeList_.reserve(cfg_.numPhysIntRegs);
    for (unsigned p = cfg_.numPhysIntRegs;
         p-- > isa::NUM_RENAMEABLE_REGS;) {
        freeList_.push_back(static_cast<std::uint16_t>(p));
    }

    rob_.assign(cfg_.robEntries, RobEntry{});
    iq_.reserve(cfg_.iqEntries);
    sq_.assign(cfg_.sqEntries, SqEntry{});
    sqData_.assign(cfg_.sqEntries, 0);
    divBusyUntil_.assign(cfg_.complexCount, 0);
}

// ---------------------------------------------------- snapshot / restore

void
Core::fixupAfterCopy()
{
    // Restored cores never profile: the probe belongs to the golden
    // run, and so does the effect-trace sink.
    probe_ = nullptr;
    esink_ = nullptr;
    l2_.repoint(nullptr, &mem_);
    l1i_.repoint(&l2_, nullptr);
    l1d_.repoint(&l2_, nullptr);
    l1dSink_.core = this;
}

std::uint64_t
Core::deepStateBytes() const
{
    // Everything a memberwise copy duplicates byte-for-byte: the
    // register machinery, the window, the LSQ, the frontend, predictor
    // tables, cache tag/LRU metadata, and the COW chunk-pointer tables
    // themselves.
    std::uint64_t n = 0;
    n += prf_.size() * sizeof(std::uint64_t);
    n += prfReady_.size();
    n += freeList_.size() * sizeof(std::uint16_t);
    n += sizeof(renameMap_) + sizeof(commitMap_);
    n += rob_.size() * sizeof(RobEntry);
    n += iq_.size() * sizeof(std::uint32_t);
    n += completions_.size() * sizeof(Completion);
    n += sq_.size() * sizeof(SqEntry);
    n += sqData_.size() * sizeof(std::uint64_t);
    n += uopQueue_.size() * sizeof(FetchedUop);
    n += divBusyUntil_.size() * sizeof(Cycle);
    n += tournament_.stateBytes() + btb_.stateBytes() + ras_.stateBytes();
    n += l2_.metaBytes() + l1i_.metaBytes() + l1d_.metaBytes();
    n += (mem_.contentBytes() / mem_.chunkBytes() + 4) * sizeof(void *);
    n += result_.output.size() +
         result_.traps.size() * sizeof(isa::TrapEvent);
    return n;
}

std::uint64_t
Core::cowStateBytes() const
{
    return mem_.contentBytes() + l2_.dataBytes() + l1i_.dataBytes() +
           l1d_.dataBytes();
}

Core::Snapshot
Core::snapshot(SnapshotStats *stats, bool deep) const
{
    auto copy = std::shared_ptr<Core>(new Core(*this));
    copy->fixupAfterCopy();
    if (deep) {
        copy->mem_.detachAll();
        copy->l2_.detachData();
        copy->l1i_.detachData();
        copy->l1d_.detachData();
    }
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
                      cfg.l2.sizeBytes == cfg_.l2.sizeBytes &&
                      cfg.memChunkBytes == cfg_.memChunkBytes,
                  "snapshot restore with mismatched structural config");
    // Run-limit knobs are the only configuration allowed to change
    // between capture and restore (the injector tightens maxCycles).
    cfg_.maxCycles = cfg.maxCycles;
    cfg_.deadlockCycles = cfg.deadlockCycles;
    cfg_.instructionWindowEnd = cfg.instructionWindowEnd;
    if (deep) {
        mem_.detachAll();
        l2_.detachData();
        l1i_.detachData();
        l1d_.detachData();
    }
    if (stats) {
        stats->bytesCopied = deepStateBytes() + (deep ? cowStateBytes() : 0);
        stats->bytesShared = deep ? 0 : cowStateBytes();
    }
}

// ------------------------------------------------------ state equality

bool
Core::stateEquals(const Snapshot &snap) const
{
    return stateEquals(requireState(snap));
}

bool
Core::stateEquals(const Core &o) const
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
        fetchHalted_ != o.fetchHalted_ ||
        l1dWbReadPhase_ != o.l1dWbReadPhase_ ||
        l1dWritePhase_ != o.l1dWritePhase_ ||
        l1dCtxSeq_ != o.l1dCtxSeq_) {
        return false;
    }
    if (!(stats_ == o.stats_) || !(result_ == o.result_))
        return false;
    if (prf_ != o.prf_ || prfReady_ != o.prfReady_ ||
        freeList_ != o.freeList_ ||
        !std::equal(std::begin(renameMap_), std::end(renameMap_),
                    std::begin(o.renameMap_)) ||
        !std::equal(std::begin(commitMap_), std::end(commitMap_),
                    std::begin(o.commitMap_))) {
        return false;
    }
    if (sqData_ != o.sqData_ || sq_ != o.sq_)
        return false;
    if (rob_ != o.rob_ || iq_ != o.iq_ || uopQueue_ != o.uopQueue_ ||
        divBusyUntil_ != o.divBusyUntil_) {
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
    return l1d_.stateEquals(o.l1d_) && l1i_.stateEquals(o.l1i_) &&
           l2_.stateEquals(o.l2_) && mem_.contentEquals(o.mem_);
}

// ---------------------------------------------------------------- faults

void
Core::flipRegisterFileBit(EntryIndex reg, unsigned bit)
{
    MERLIN_ASSERT(reg < prf_.size() && bit < 64, "RF flip out of range");
    prf_[reg] ^= 1ULL << bit;
}

void
Core::flipStoreQueueBit(EntryIndex slot, unsigned bit)
{
    MERLIN_ASSERT(slot < sqData_.size() && bit < 64,
                  "SQ flip out of range");
    sqData_[slot] ^= 1ULL << bit;
}

void
Core::flipL1dBit(EntryIndex word, unsigned bit)
{
    l1d_.flipBit(word, bit);
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
Core::addPendingRead(RobEntry &e, Structure s, EntryIndex entry,
                     Cycle cycle, std::uint8_t ph)
{
    if (!probe_)
        return;
    MERLIN_ASSERT(e.nPending < 4, "pending read overflow");
    e.pending[e.nPending++] = PendingRead{s, entry, cycle, ph};
}

std::uint64_t
Core::readPhysReg(RobEntry &e, std::uint16_t preg)
{
    addPendingRead(e, Structure::RegisterFile, preg, cycle_,
                   phase::RegRead);
    emitEffect(Structure::RegisterFile, preg, 0xff, false);
    return prf_[preg];
}

void
Core::setEffectSink(EffectSink *sink)
{
    esink_ = sink;
    if (esink_) {
        l1dSink_.core = this;
        l1d_.setEventSink(&l1dSink_);
    }
}

void
Core::L1dSink::onCacheWordWrite(EntryIndex word, Cycle cycle)
{
    if (core->probe_) {
        core->probe_->onWrite(Structure::L1DCache, word, cycle,
                              core->l1dWritePhase_);
    }
}

void
Core::L1dSink::onCacheWordWritebackRead(EntryIndex word, Cycle cycle,
                                        Rip rip, Upc upc)
{
    if (core->probe_) {
        core->probe_->onCommittedRead(Structure::L1DCache, word, cycle,
                                      core->l1dWbReadPhase_, rip, upc,
                                      core->l1dCtxSeq_);
    }
}

void
Core::L1dSink::onCacheWordWriteMasked(EntryIndex word, std::uint8_t mask,
                                      Cycle /*cycle*/)
{
    core->emitEffect(Structure::L1DCache, word, mask, true);
}

void
Core::L1dSink::onCacheWordReadMasked(EntryIndex word, std::uint8_t mask,
                                     Cycle /*cycle*/)
{
    core->emitEffect(Structure::L1DCache, word, mask, false);
}

void
Core::scheduleCompletion(RobEntry &e, Cycle when)
{
    completions_.push(Completion{
        when, e.seq, static_cast<std::uint32_t>(e.seq % cfg_.robEntries),
        e.gen});
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
    if (uopQueue_.size() >= 32)
        return;

    for (unsigned fetched = 0; fetched < cfg_.fetchWidth; ++fetched) {
        // Permission / mapping check through functional memory.
        std::uint64_t unused = 0;
        if (mem_.fetch(fetchPc_, unused) != TrapKind::None) {
            FetchedUop f;
            f.rip = fetchPc_;
            f.fetchTrap = TrapKind::PcOutOfText;
            f.readyAt = cycle_ + cfg_.frontendDepth;
            uopQueue_.push_back(f);
            fetchHalted_ = true;
            return;
        }

        Cache::AccessResult ar =
            l1i_.access(fetchPc_, false, cycle_, fetchPc_, 0);
        if (!ar.hit) {
            // Line is now resident; retry once the fill completes.
            fetchResumeCycle_ = cycle_ + ar.latency;
            return;
        }
        const std::uint64_t raw = l1i_.readBytes(
            ar.set, ar.way,
            static_cast<std::uint32_t>(fetchPc_ & (cfg_.l1i.lineSize - 1)),
            8);

        auto decoded = isa::decode(raw);
        if (!decoded) {
            FetchedUop f;
            f.rip = fetchPc_;
            f.fetchTrap = TrapKind::IllegalInstruction;
            f.readyAt = cycle_ + cfg_.frontendDepth;
            uopQueue_.push_back(f);
            fetchHalted_ = true;
            return;
        }
        const isa::Instruction insn = *decoded;

        StaticUop uops[isa::MAX_UOPS_PER_MACRO];
        const unsigned n = isa::expand(insn, fetchPc_, uops);
        const Addr fall = fetchPc_ + isa::INSN_BYTES;

        // Branch prediction for control-flow macros (control uop is
        // always the last uop of its macro).
        bool is_ctrl = isa::isControlFlow(insn.op);
        bool pred_taken = false;
        Addr pred_target = fall;
        bool has_pred_state = false;
        PredictionState pred_state;
        bool ras_valid = false;
        Ras::Snapshot ras_snap{0, 0};

        if (is_ctrl) {
            const StaticUop &ctrl = uops[n - 1];
            if (isa::isCondBranch(insn.op)) {
                pred_state = tournament_.predict(fetchPc_);
                has_pred_state = true;
                pred_taken = pred_state.taken;
                pred_target = pred_taken
                                  ? static_cast<std::uint32_t>(insn.imm)
                                  : fall;
            } else if (insn.op == Opcode::JMP ||
                       insn.op == Opcode::CALL) {
                pred_taken = true;
                pred_target = static_cast<std::uint32_t>(insn.imm);
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
            FetchedUop f;
            f.su = uops[i];
            f.rip = fetchPc_;
            f.upc = static_cast<Upc>(i);
            f.lastUop = (i == n - 1);
            f.readyAt = cycle_ + cfg_.frontendDepth;
            if (is_ctrl && i == n - 1) {
                f.isCtrl = true;
                f.predTaken = pred_taken;
                f.predTarget = pred_target;
                f.hasPredState = has_pred_state;
                f.predState = pred_state;
                f.rasValid = ras_valid;
                f.rasSnap = ras_snap;
            }
            uopQueue_.push_back(f);
        }

        if (insn.op == Opcode::HALT) {
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
    for (unsigned n = 0; n < cfg_.renameWidth && !uopQueue_.empty(); ++n) {
        FetchedUop &f = uopQueue_.front();
        if (f.readyAt > cycle_ || robFull())
            return;

        const bool is_store = f.su.kind == UopKind::Store;
        const bool is_load = f.su.kind == UopKind::Load;
        const bool needs_iq = f.fetchTrap == TrapKind::None &&
                              f.su.kind != UopKind::Nop &&
                              f.su.kind != UopKind::Halt;

        if (needs_iq && iq_.size() >= cfg_.iqEntries)
            return;
        if (is_store && sqNextSeq_ - sqHeadSeq_ >= cfg_.sqEntries)
            return;
        if (is_load && lqOccupancy_ >= cfg_.lqEntries)
            return;
        if (f.su.dst != isa::REG_NONE && freeList_.empty())
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
        e.su = f.su;
        e.trap = f.fetchTrap;
        e.isCtrl = f.isCtrl;
        e.predTaken = f.predTaken;
        e.predTarget = f.predTarget;
        e.hasPredState = f.hasPredState;
        e.predState = f.predState;
        e.rasValid = f.rasValid;
        e.rasSnap = f.rasSnap;

        if (f.su.src1 != isa::REG_NONE)
            e.physSrc1 = renameMap_[f.su.src1];
        if (f.su.src2 != isa::REG_NONE)
            e.physSrc2 = renameMap_[f.su.src2];
        if (f.su.dst != isa::REG_NONE) {
            e.physDst = freeList_.back();
            freeList_.pop_back();
            e.prevPhys = renameMap_[f.su.dst];
            renameMap_[f.su.dst] = e.physDst;
            prfReady_[e.physDst] = 0;
        }

        if (is_store) {
            e.storeSeq = sqNextSeq_;
            e.sqSlot = static_cast<std::int32_t>(sqNextSeq_ %
                                                 cfg_.sqEntries);
            SqEntry &q = sq_[e.sqSlot];
            q = SqEntry{};
            q.valid = true;
            q.storeSeq = sqNextSeq_;
            q.robIdx = static_cast<std::uint32_t>(seq % cfg_.robEntries);
            q.seqNum = seq;
            q.rip = f.rip;
            q.upc = f.upc;
            ++sqNextSeq_;
        }
        if (is_load) {
            e.isLoad = true;
            e.loadOlderStoreSeq = sqNextSeq_;
            ++lqOccupancy_;
        }

        if (needs_iq)
            iq_.push_back(static_cast<std::uint32_t>(seq %
                                                     cfg_.robEntries));
        else
            e.done = true;

        uopQueue_.pop_front();
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
    for (std::uint64_t s = e.loadOlderStoreSeq; s-- > sqHeadSeq_;) {
        const std::uint32_t slot =
            static_cast<std::uint32_t>(s % cfg_.sqEntries);
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
        const unsigned shift =
            static_cast<unsigned>(addr - q.addr) * 8;
        // Physical consumption of the SQ data field — recorded even
        // when the caller is only probing issue eligibility (a
        // conservative over-report; see EffectSink).
        emitEffect(Structure::StoreQueue, slot,
                   static_cast<std::uint8_t>(
                       (size >= 8 ? 0xffu : (1u << size) - 1u)
                       << (shift / 8)),
                   false);
        std::uint64_t v = sqData_[slot] >> shift;
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
        addPendingRead(e, Structure::RegisterFile, e.physSrc1, cycle_,
                       phase::RegRead);
        emitEffect(Structure::RegisterFile, e.physSrc1, 0xff, false);
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
            addPendingRead(e, Structure::StoreQueue, fwd_slot, cycle_,
                           phase::SqForwardRead);
            done_at = cycle_ + cfg_.forwardLatency;
        } else {
            l1dWbReadPhase_ = phase::L1dIssueWbRead;
            l1dWritePhase_ = phase::L1dIssueWrite;
            l1dCtxSeq_ = e.seq;
            Cache::AccessResult ar =
                l1d_.access(addr, false, cycle_, e.rip, e.upc);
            const std::uint32_t off = static_cast<std::uint32_t>(
                addr & (cfg_.l1d.lineSize - 1));
            value = l1d_.readBytes(ar.set, ar.way, off, su.memSize);
            addPendingRead(e, Structure::L1DCache,
                           l1d_.wordIndex(ar.set, ar.way, off), cycle_,
                           phase::L1dLoadRead);
            if (esink_) {
                // Exact bytes consumed, per touched word (a load may
                // straddle an 8-byte word boundary).
                for (std::uint32_t b = off; b < off + su.memSize;) {
                    const std::uint32_t run = std::min<std::uint32_t>(
                        off + su.memSize, (b & ~7u) + 8);
                    std::uint8_t mask = 0;
                    for (std::uint32_t i = b; i < run; ++i)
                        mask |= static_cast<std::uint8_t>(1u << (i & 7u));
                    emitEffect(Structure::L1DCache,
                               l1d_.wordIndex(ar.set, ar.way, b), mask,
                               false);
                    b = run;
                }
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
            emitEffect(Structure::StoreQueue,
                       static_cast<EntryIndex>(e.sqSlot), 0xff, true);
            if (probe_) {
                probe_->onWrite(Structure::StoreQueue,
                                static_cast<EntryIndex>(e.sqSlot), cycle_,
                                phase::SqWrite);
            }
        }
        scheduleCompletion(e, cycle_ + 1);
        break;
      }

      case UopKind::Out: {
        e.outValue = readPhysReg(e, e.physSrc2);
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
        RobEntry &e = rob_[*it];
        const bool ready =
            (e.physSrc1 == NO_PREG || prfReady_[e.physSrc1]) &&
            (e.physSrc2 == NO_PREG || prfReady_[e.physSrc2]);
        if (!ready) {
            ++it;
            continue;
        }

        // Functional-unit availability.
        unsigned div_unit = 0;
        switch (e.su.kind) {
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
        if (e.su.kind == UopKind::Load) {
            const Addr addr = prf_[e.physSrc1] + e.su.imm;
            // Scheduling read: the register value decides whether the
            // load can issue this cycle, so it is physically consumed
            // even when the load ends up blocked.
            emitEffect(Structure::RegisterFile, e.physSrc1, 0xff, false);
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
        e.nPending = 0;
        if (e.physDst != NO_PREG) {
            renameMap_[e.su.dst] = e.prevPhys;
            freeList_.push_back(e.physDst);
        }
        if (e.sqSlot >= 0) {
            sq_[e.sqSlot].valid = false;
            sqNextSeq_ = e.storeSeq;
        }
        if (e.isLoad)
            --lqOccupancy_;
    }
    robTailSeq_ = branch_seq + 1;

    // Drop squashed entries from the issue queue.
    std::erase_if(iq_, [&](std::uint32_t idx) {
        return rob_[idx].seq > branch_seq;
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
    uopQueue_.clear();
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
            emitEffect(Structure::RegisterFile, e.physDst, 0xff, true);
            if (probe_) {
                probe_->onWrite(Structure::RegisterFile, e.physDst,
                                c.cycle, phase::RegWrite);
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
    const std::uint32_t slot =
        static_cast<std::uint32_t>(sqHeadSeq_ % cfg_.sqEntries);
    SqEntry &q = sq_[slot];
    MERLIN_ASSERT(q.valid, "invalid store at SQ head");
    if (!q.committed)
        return;

    l1dWbReadPhase_ = phase::L1dDrainWbRead;
    l1dWritePhase_ = phase::L1dDrainWrite;
    l1dCtxSeq_ = q.seqNum;
    Cache::AccessResult ar = l1d_.access(q.addr, true, cycle_, q.rip,
                                         q.upc);
    const std::uint32_t off =
        static_cast<std::uint32_t>(q.addr & (cfg_.l1d.lineSize - 1));
    // Draining physically reads the low q.size bytes of the data field.
    emitEffect(Structure::StoreQueue, slot,
               static_cast<std::uint8_t>(q.size >= 8 ? 0xffu
                                                     : (1u << q.size) - 1u),
               false);
    l1d_.writeBytes(ar.set, ar.way, off, q.size, sqData_[slot], cycle_);
    if (probe_) {
        // Draining reads the SQ data field one last time.
        probe_->onCommittedRead(Structure::StoreQueue, slot, cycle_,
                                phase::SqDrainRead, q.rip, q.upc,
                                q.seqNum);
    }
    q.valid = false;
    ++sqHeadSeq_;
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
            for (unsigned i = 0; i < e.nPending; ++i) {
                const PendingRead &p = e.pending[i];
                probe_->onCommittedRead(p.s, p.entry, p.cycle, p.phase,
                                        e.rip, e.upc, e.seq);
            }
        }

        if (e.su.kind == UopKind::Out) {
            std::uint8_t buf[8];
            storeLE(buf, e.outValue, 8);
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
                    probe_->onCommitBranch(e.rip, e.actualTaken, e.seq);
            } else if (e.su.base == Opcode::JR) {
                btb_.update(e.rip, e.actualTarget);
            }
        }

        ++stats_.uopsRetired;
        if (e.lastUop) {
            ++stats_.instret;
            if (probe_)
                probe_->onCommitInstruction(e.rip, e.seq);
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
