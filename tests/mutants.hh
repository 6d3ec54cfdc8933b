/**
 * @file
 * Byte-level mutators for parser robustness tests: every strict prefix
 * and every single-bit flip of a valid document.  A parser fed a mutant
 * must either accept it or fail with FatalError; anything else (another
 * exception, a crash, a sanitizer report) fails the test.
 */

#ifndef MERLIN_TESTS_MUTANTS_HH
#define MERLIN_TESTS_MUTANTS_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <string>

#include "base/logging.hh"

namespace merlin::test
{

/** How many mutants a parser accepted and rejected. */
struct MutantTally
{
    std::size_t accepted = 0;
    std::size_t rejected = 0;
};

/**
 * Feed @p parse (callable on a std::string) one mutant; @p what names
 * it in a failure.  @return true when it was accepted.
 */
template <typename Parse>
bool
feedMutant(const Parse &parse, const std::string &bytes,
           const std::string &what, MutantTally &tally)
{
    try {
        parse(bytes);
        ++tally.accepted;
        return true;
    } catch (const FatalError &) {
        ++tally.rejected;
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": not a FatalError: " << e.what();
    }
    return false;
}

/** Every strict prefix of @p doc. */
template <typename Parse>
MutantTally
feedPrefixes(const std::string &doc, const Parse &parse)
{
    MutantTally t;
    for (std::size_t n = 0; n < doc.size(); ++n)
        feedMutant(parse, doc.substr(0, n),
                   "prefix of " + std::to_string(n) + " bytes", t);
    return t;
}

/** Every single-bit flip of @p doc. */
template <typename Parse>
MutantTally
feedBitFlips(const std::string &doc, const Parse &parse)
{
    MutantTally t;
    std::string m = doc;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            m[i] = static_cast<char>(doc[i] ^ (1 << bit));
            feedMutant(parse, m,
                       "byte " + std::to_string(i) + " bit " +
                           std::to_string(bit),
                       t);
        }
        m[i] = doc[i];
    }
    return t;
}

} // namespace merlin::test

#endif // MERLIN_TESTS_MUTANTS_HH
