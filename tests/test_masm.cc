/**
 * @file
 * Unit tests for the assembler: syntax, labels, directives, pseudo
 * instructions, and error diagnostics.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "base/bits.hh"
#include "isa/isa.hh"
#include "masm/asm.hh"
#include "mutants.hh"

namespace merlin::masm
{
namespace
{

using isa::Opcode;

isa::Instruction
insnAt(const isa::Program &p, unsigned idx)
{
    auto raw = loadLE(p.text.data() + idx * isa::INSN_BYTES,
                      isa::INSN_BYTES);
    auto d = isa::decode(raw);
    EXPECT_TRUE(d.has_value());
    return d.value_or(isa::Instruction{});
}

TEST(Masm, MinimalProgram)
{
    auto p = assemble("halt 0\n", "t");
    ASSERT_EQ(p.instructionCount(), 1u);
    EXPECT_EQ(insnAt(p, 0).op, Opcode::HALT);
}

TEST(Masm, RegisterAliases)
{
    EXPECT_EQ(parseRegister("r0"), 0u);
    EXPECT_EQ(parseRegister("r31"), 31u);
    EXPECT_EQ(parseRegister("a0"), 0u);
    EXPECT_EQ(parseRegister("a5"), 5u);
    EXPECT_EQ(parseRegister("t0"), 6u);
    EXPECT_EQ(parseRegister("t9"), 15u);
    EXPECT_EQ(parseRegister("s0"), 16u);
    EXPECT_EQ(parseRegister("s9"), 25u);
    EXPECT_EQ(parseRegister("gp"), 26u);
    EXPECT_EQ(parseRegister("tp"), 27u);
    EXPECT_EQ(parseRegister("fp"), 28u);
    EXPECT_EQ(parseRegister("sp"), 29u);
    EXPECT_EQ(parseRegister("at"), 30u);
    EXPECT_EQ(parseRegister("ra"), 31u);
    EXPECT_EQ(parseRegister("r32"), 255u);
    EXPECT_EQ(parseRegister("a6"), 255u);
    EXPECT_EQ(parseRegister("bogus"), 255u);
}

TEST(Masm, ThreeOperandAlu)
{
    auto p = assemble("add t0, t1, t2\nhalt 0\n", "t");
    auto i = insnAt(p, 0);
    EXPECT_EQ(i.op, Opcode::ADD);
    EXPECT_EQ(i.rd, 6);
    EXPECT_EQ(i.rs1, 7);
    EXPECT_EQ(i.rs2, 8);
}

TEST(Masm, ImmediateForms)
{
    auto p = assemble("addi a0, a0, -4\n"
                      "movi a1, 0x10\n"
                      "movi a2, 'A'\n"
                      "halt 0\n",
                      "t");
    EXPECT_EQ(insnAt(p, 0).imm, -4);
    EXPECT_EQ(insnAt(p, 1).imm, 0x10);
    EXPECT_EQ(insnAt(p, 2).imm, 'A');
}

TEST(Masm, MemoryOperands)
{
    auto p = assemble("ld.w t0, [a0+8]\n"
                      "st.d t1, [sp]\n"
                      "ld.d t2, [a1-16]\n"
                      "halt 0\n",
                      "t");
    auto l = insnAt(p, 0);
    EXPECT_EQ(l.op, Opcode::LDW);
    EXPECT_EQ(l.rd, 6);
    EXPECT_EQ(l.rs1, 0);
    EXPECT_EQ(l.imm, 8);
    auto s = insnAt(p, 1);
    EXPECT_EQ(s.op, Opcode::STD);
    EXPECT_EQ(s.rs2, 7);
    EXPECT_EQ(s.rs1, isa::REG_SP);
    EXPECT_EQ(s.imm, 0);
    EXPECT_EQ(insnAt(p, 2).imm, -16);
}

TEST(Masm, LabelsResolveAcrossForwardAndBackward)
{
    auto p = assemble("start:\n"
                      "  jmp fwd\n"
                      "  nop\n"
                      "fwd:\n"
                      "  beq a0, a1, start\n"
                      "  halt 0\n",
                      "t");
    EXPECT_EQ(static_cast<Addr>(insnAt(p, 0).imm),
              isa::layout::TEXT_BASE + 2 * isa::INSN_BYTES);
    EXPECT_EQ(static_cast<Addr>(insnAt(p, 2).imm), isa::layout::TEXT_BASE);
    EXPECT_EQ(p.symbol("start"), isa::layout::TEXT_BASE);
    EXPECT_EQ(p.symbol("fwd"), isa::layout::TEXT_BASE + 16);
}

TEST(Masm, DataDirectivesAndSymbols)
{
    auto p = assemble(".data\n"
                      "tab: .quad 1, 2, 3\n"
                      "b:   .byte 0xff\n"
                      "     .align 4\n"
                      "w:   .word 513\n"
                      "s:   .asciz \"hi\"\n"
                      "buf: .space 16\n"
                      ".text\n"
                      "halt 0\n",
                      "t");
    EXPECT_EQ(p.symbol("tab"), isa::layout::DATA_BASE);
    EXPECT_EQ(p.symbol("b"), isa::layout::DATA_BASE + 24);
    EXPECT_EQ(p.symbol("w"), isa::layout::DATA_BASE + 28);
    EXPECT_EQ(p.symbol("s"), isa::layout::DATA_BASE + 32);
    EXPECT_EQ(p.symbol("buf"), isa::layout::DATA_BASE + 35);
    // Contents.
    EXPECT_EQ(loadLE(p.data.data(), 8), 1u);
    EXPECT_EQ(loadLE(p.data.data() + 8, 8), 2u);
    EXPECT_EQ(p.data[24], 0xff);
    EXPECT_EQ(loadLE(p.data.data() + 28, 4), 513u);
    EXPECT_EQ(p.data[32], 'h');
    EXPECT_EQ(p.data[33], 'i');
    EXPECT_EQ(p.data[34], '\0');
}

TEST(Masm, SymbolImmediates)
{
    auto p = assemble(".data\n"
                      "v: .quad 42\n"
                      ".text\n"
                      "la a0, v\n"
                      "ld.d a1, [a0+0]\n"
                      "ld.d a2, [a0+v-1048576]\n"
                      "halt 0\n",
                      "t");
    EXPECT_EQ(static_cast<Addr>(insnAt(p, 0).imm), isa::layout::DATA_BASE);
}

TEST(Masm, LiSmallIsOneInstruction)
{
    auto p = assemble("li a0, 1000\nhalt 0\n", "t");
    EXPECT_EQ(p.instructionCount(), 2u);
    EXPECT_EQ(insnAt(p, 0).op, Opcode::MOVI);
}

TEST(Masm, LiLargeIsTwoInstructions)
{
    auto p = assemble("li a0, 0x123456789abcdef0\nhalt 0\n", "t");
    EXPECT_EQ(p.instructionCount(), 3u);
    EXPECT_EQ(insnAt(p, 0).op, Opcode::MOVI);
    EXPECT_EQ(insnAt(p, 1).op, Opcode::MOVHI);
    EXPECT_EQ(static_cast<std::uint32_t>(insnAt(p, 0).imm), 0x9abcdef0u);
    EXPECT_EQ(static_cast<std::uint32_t>(insnAt(p, 1).imm), 0x12345678u);
}

TEST(Masm, PseudoMovAndRet)
{
    auto p = assemble("mov a0, a1\nret\nhalt 0\n", "t");
    auto m = insnAt(p, 0);
    EXPECT_EQ(m.op, Opcode::ADDI);
    EXPECT_EQ(m.rd, 0);
    EXPECT_EQ(m.rs1, 1);
    EXPECT_EQ(m.imm, 0);
    auto r = insnAt(p, 1);
    EXPECT_EQ(r.op, Opcode::JR);
    EXPECT_EQ(r.rs1, isa::REG_RA);
}

TEST(Masm, CommentsAndBlankLines)
{
    auto p = assemble("; leading comment\n"
                      "\n"
                      "  # another\n"
                      "nop ; trailing\n"
                      "halt 0 # trailing too\n",
                      "t");
    EXPECT_EQ(p.instructionCount(), 2u);
}

TEST(Masm, EntryDefaultsToTextBaseOrStart)
{
    auto p1 = assemble("nop\nhalt 0\n", "t");
    EXPECT_EQ(p1.entry, isa::layout::TEXT_BASE);
    auto p2 = assemble("nop\n_start:\nhalt 0\n", "t");
    EXPECT_EQ(p2.entry, isa::layout::TEXT_BASE + 8);
}

TEST(MasmErrors, UnknownMnemonic)
{
    EXPECT_THROW(assemble("frobnicate a0\n", "t"), AsmError);
}

TEST(MasmErrors, BadRegister)
{
    EXPECT_THROW(assemble("add q0, a1, a2\nhalt 0\n", "t"), AsmError);
}

TEST(MasmErrors, UndefinedSymbol)
{
    EXPECT_THROW(assemble("jmp nowhere\nhalt 0\n", "t"), AsmError);
}

TEST(MasmErrors, DuplicateLabel)
{
    EXPECT_THROW(assemble("x:\nnop\nx:\nhalt 0\n", "t"), AsmError);
}

TEST(MasmErrors, WrongOperandCount)
{
    EXPECT_THROW(assemble("add a0, a1\nhalt 0\n", "t"), AsmError);
}

TEST(MasmErrors, CallrRaRejected)
{
    EXPECT_THROW(assemble("callr ra\nhalt 0\n", "t"), AsmError);
}

TEST(MasmErrors, DirectiveInText)
{
    EXPECT_THROW(assemble(".quad 1\nhalt 0\n", "t"), AsmError);
}

TEST(MasmErrors, MessageHasLineNumber)
{
    try {
        assemble("nop\nbogus a0\n", "prog");
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_NE(std::string(e.what()).find("prog:2"), std::string::npos);
    }
}

TEST(MasmErrors, ImmediateOverflow)
{
    EXPECT_THROW(assemble("addi a0, a0, 0x100000000\nhalt 0\n", "t"),
                 AsmError);
}

/**
 * Every prefix and bit flip of a program either assembles or fails with
 * FatalError (AsmError is one): no other exception, crash or sanitizer
 * report.  tiny.s is the CLI smokes' program; the inline one adds
 * labels, data directives, memory operands and pseudo-instructions.
 */
TEST(MasmMutants, EveryPrefixAndBitFlipAssemblesOrFailsByName)
{
    std::ifstream in(std::string(MERLIN_SOURCE_DIR) +
                     "/tests/fixtures/tiny.s");
    ASSERT_TRUE(in);
    std::stringstream tiny;
    tiny << in.rdbuf();
    const std::string rich = ".data\n"
                             "tab: .quad 1, 2, 3\n"
                             "b:   .byte 0xff\n"
                             "     .align 4\n"
                             "s:   .asciz \"hi\"\n"
                             ".text\n"
                             "start:\n"
                             "  la a0, tab\n"
                             "  ld.d a1, [a0+8]\n"
                             "  li a2, 0x123456789\n"
                             "  add a1, a1, a2\n"
                             "  beq a1, a0, start\n"
                             "  out.d a1\n"
                             "  halt 0\n";
    for (const std::string &doc : {tiny.str(), rich}) {
        ASSERT_NO_THROW(assemble(doc, "original"));
        const auto parse = [](const std::string &src) {
            assemble(src, "mutant");
        };
        const test::MutantTally prefixes = test::feedPrefixes(doc, parse);
        const test::MutantTally flips = test::feedBitFlips(doc, parse);
        // The mutators reach both sides of the parser.
        EXPECT_GT(prefixes.accepted + flips.accepted, 0u);
        EXPECT_GT(prefixes.rejected + flips.rejected, 0u);
    }
}

} // namespace
} // namespace merlin::masm
