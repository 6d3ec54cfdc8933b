/**
 * @file
 * gcc (SPEC-like): a stack-machine bytecode interpreter — the irregular,
 * branch-heavy dispatch loop characteristic of compilers and language
 * tools.  The interpreted program is generated (valid by construction)
 * and bounded by a step budget.
 */

#include <functional>
#include <sstream>

#include "workloads/emit.hh"
#include "workloads/suite.hh"

namespace merlin::workloads
{

namespace
{

// Bytecode: one op per quad pair (opcode, arg).
enum Op : std::int64_t
{
    OP_PUSH = 0, // push arg
    OP_ADD = 1,  // pop b, a; push a+b
    OP_SUB = 2,
    OP_MUL = 3,
    OP_DUP = 4,   // duplicate top
    OP_SWAP = 5,  // swap top two
    OP_JNZ = 6,   // pop v; if v != 0 jump to arg
    OP_DEC = 7,   // top -= 1
    OP_XOR = 8,   // pop b, a; push a^b
    OP_HALT = 9,
};

struct Prog
{
    std::vector<std::int64_t> code; // (op, arg) pairs
};

/** A nest of counted loops doing arithmetic — always terminates. */
Prog
makeBytecode()
{
    Prog p;
    auto emit = [&](std::int64_t op, std::int64_t arg) {
        p.code.push_back(op);
        p.code.push_back(arg);
    };
    // acc = 1
    emit(OP_PUSH, 1);
    // outer counter = 120
    emit(OP_PUSH, 120);
    const std::int64_t outer_top = static_cast<std::int64_t>(
        p.code.size() / 2);
    //   swap -> acc on top; mix acc
    emit(OP_SWAP, 0);
    emit(OP_DUP, 0);
    emit(OP_PUSH, 2654435761LL);
    emit(OP_MUL, 0);
    emit(OP_XOR, 0);
    emit(OP_PUSH, 17);
    emit(OP_ADD, 0);
    //   inner counter = 9
    emit(OP_PUSH, 9);
    const std::int64_t inner_top = static_cast<std::int64_t>(
        p.code.size() / 2);
    emit(OP_SWAP, 0);
    emit(OP_PUSH, 3);
    emit(OP_MUL, 0);
    emit(OP_PUSH, 1);
    emit(OP_SUB, 0);
    emit(OP_SWAP, 0);
    emit(OP_DEC, 0);
    emit(OP_DUP, 0);
    emit(OP_JNZ, inner_top);
    //   drop inner counter: xor-with-self leaves 0, add into acc
    emit(OP_XOR, 0); // pops counter(0) ^ acc-ish... stack: acc^0
    emit(OP_SWAP, 0);
    emit(OP_DEC, 0);
    emit(OP_DUP, 0);
    emit(OP_JNZ, outer_top);
    // stack now: [acc, outer(0)]; fold and stop
    emit(OP_ADD, 0);
    emit(OP_HALT, 0);
    return p;
}

/** @p a op @p b in std::uint64_t, cast back: the two's-complement wrap
 *  the simulated add/sub/mul perform (std::int64_t overflow is UB). */
template <typename Op>
std::int64_t
wrapping(std::int64_t a, std::int64_t b, Op op)
{
    return static_cast<std::int64_t>(
        op(static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b)));
}

/** Reference interpreter mirroring the assembly exactly. */
std::pair<std::uint64_t, std::uint64_t>
refRun(const Prog &p, std::uint64_t max_steps)
{
    std::vector<std::int64_t> stack;
    std::uint64_t steps = 0;
    std::int64_t pc = 0;
    while (steps < max_steps) {
        const std::int64_t op = p.code[2 * pc];
        const std::int64_t arg = p.code[2 * pc + 1];
        ++steps;
        ++pc;
        switch (op) {
          case OP_PUSH: stack.push_back(arg); break;
          case OP_ADD: {
            auto b = stack.back();
            stack.pop_back();
            stack.back() = wrapping(stack.back(), b, std::plus<>());
            break;
          }
          case OP_SUB: {
            auto b = stack.back();
            stack.pop_back();
            stack.back() = wrapping(stack.back(), b, std::minus<>());
            break;
          }
          case OP_MUL: {
            auto b = stack.back();
            stack.pop_back();
            stack.back() = wrapping(stack.back(), b, std::multiplies<>());
            break;
          }
          case OP_DUP: stack.push_back(stack.back()); break;
          case OP_SWAP:
            std::swap(stack.back(), stack[stack.size() - 2]);
            break;
          case OP_JNZ: {
            auto v = stack.back();
            stack.pop_back();
            if (v != 0)
                pc = arg;
            break;
          }
          case OP_DEC:
            stack.back() = wrapping(stack.back(), 1, std::minus<>());
            break;
          case OP_XOR: {
            auto b = stack.back();
            stack.pop_back();
            stack.back() ^= b;
            break;
          }
          case OP_HALT:
            return {static_cast<std::uint64_t>(stack.back()), steps};
        }
    }
    return {0, steps};
}

} // namespace

WorkloadSource
wlGcc()
{
    WorkloadSource w;
    w.description = "stack-machine bytecode interpreter (dispatch-heavy)";
    w.window = 25'000;

    Prog p = makeBytecode();

    std::ostringstream os;
    os << ".data\n"
       << quadTable("code", p.code) << "stk: .space 2048\n"
       << ".text\n";
    // s0 = code base, s1 = vm pc, s2 = stack ptr (grows up, points to
    // next free quad), s3 = step count, t8 = 0.
    os << R"(_start:
  la s0, code
  movi s1, 0
  la s2, stk
  movi s3, 0
vm_loop:
  shli t0, s1, 4         ; pc * 16 (two quads per op)
  add t0, t0, s0
  ld.d t1, [t0]          ; opcode
  ld.d t2, [t0+8]        ; arg
  addi s3, s3, 1
  addi s1, s1, 1
  ; dispatch chain (compilers love unpredictable branches)
  beq t1, t8, op_push
  movi t3, 1
  beq t1, t3, op_add
  movi t3, 2
  beq t1, t3, op_sub
  movi t3, 3
  beq t1, t3, op_mul
  movi t3, 4
  beq t1, t3, op_dup
  movi t3, 5
  beq t1, t3, op_swap
  movi t3, 6
  beq t1, t3, op_jnz
  movi t3, 7
  beq t1, t3, op_dec
  movi t3, 8
  beq t1, t3, op_xor
  jmp vm_done            ; OP_HALT

op_push:
  st.d t2, [s2]
  addi s2, s2, 8
  jmp vm_loop
op_add:
  ld.d t3, [s2-8]
  ld.d t4, [s2-16]
  add t4, t4, t3
  st.d t4, [s2-16]
  addi s2, s2, -8
  jmp vm_loop
op_sub:
  ld.d t3, [s2-8]
  ld.d t4, [s2-16]
  sub t4, t4, t3
  st.d t4, [s2-16]
  addi s2, s2, -8
  jmp vm_loop
op_mul:
  ld.d t3, [s2-8]
  ld.d t4, [s2-16]
  mul t4, t4, t3
  st.d t4, [s2-16]
  addi s2, s2, -8
  jmp vm_loop
op_dup:
  ld.d t3, [s2-8]
  st.d t3, [s2]
  addi s2, s2, 8
  jmp vm_loop
op_swap:
  ld.d t3, [s2-8]
  ld.d t4, [s2-16]
  st.d t4, [s2-8]
  st.d t3, [s2-16]
  jmp vm_loop
op_jnz:
  ld.d t3, [s2-8]
  addi s2, s2, -8
  beq t3, t8, vm_loop
  mov s1, t2
  jmp vm_loop
op_dec:
  ld.d t3, [s2-8]
  addi t3, t3, -1
  st.d t3, [s2-8]
  jmp vm_loop
op_xor:
  ld.d t3, [s2-8]
  ld.d t4, [s2-16]
  xor t4, t4, t3
  st.d t4, [s2-16]
  addi s2, s2, -8
  jmp vm_loop

vm_done:
  ld.d t0, [s2-8]
  out.d t0
  out.d s3
  halt 0
)";
    w.source = os.str();

    auto [result, steps] = refRun(p, 10'000'000);
    outD(w.expected, result);
    outD(w.expected, steps);
    return w;
}

} // namespace merlin::workloads
