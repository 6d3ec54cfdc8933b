/**
 * @file
 * MRL-64 assembler.
 *
 * A two-pass assembler over a simple AT&T-free syntax:
 *
 *     ; comment (also '#')
 *     .text                     ; section switch (default .text)
 *         movi  a0, 42
 *         la    a1, buf         ; symbol as immediate
 *         ld.w  t0, [a1+8]
 *         st.d  t0, [sp]
 *     loop:
 *         beq   a0, t0, done
 *         call  func
 *     done:
 *         halt  0
 *     .data
 *     buf:  .space 1024
 *     tab:  .quad  1, 2, 3
 *     msg:  .asciz "hello"
 *
 * Registers: r0..r31 with aliases a0-a5 (r0-r5), t0-t9 (r6-r15),
 * s0-s9 (r16-r25), gp, tp, fp, sp, at, ra.
 *
 * Directives: .text .data .align N .byte .half .word .quad .space N
 * .ascii .asciz
 *
 * Pseudo-instructions: li rd,imm64 (1-2 insns) / la rd,sym / mov rd,rs /
 * ret / b target.
 */

#ifndef MERLIN_MASM_ASM_HH
#define MERLIN_MASM_ASM_HH

#include <string>

#include "base/logging.hh"
#include "isa/program.hh"

namespace merlin::masm
{

/** Raised on any syntax or semantic assembly error ("name:line: msg");
 *  a FatalError like every other malformed-input diagnostic. */
class AsmError : public FatalError
{
  public:
    explicit AsmError(const std::string &msg) : FatalError(msg) {}
};

/**
 * Assemble @p source into a loadable program.
 *
 * @param source  assembly text
 * @param name    program name used in diagnostics
 * @throws AsmError on malformed input
 */
isa::Program assemble(const std::string &source, const std::string &name);

/** Parse a register name ("r7", "sp", "a0"); returns 255 when invalid. */
unsigned parseRegister(const std::string &tok);

} // namespace merlin::masm

#endif // MERLIN_MASM_ASM_HH
