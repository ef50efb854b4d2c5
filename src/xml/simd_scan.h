// SIMD-accelerated byte scanning for the SAX hot loops.
//
// Every engine in the system consumes one single-pass SAX event stream, so
// the byte scans inside SaxParser::Pump — "find the next markup byte",
// "find the closing quote", "skip this whitespace run" — bound docs/sec
// for the whole pipeline. This module provides those scans as dispatchable
// kernels: an AVX2 implementation, an SSE2 implementation (x86-64
// baseline), and a scalar reference. One tier is selected at first use
// (AVX2 → SSE2 → scalar) and can be pinned for testing.
//
// Contract (DESIGN.md §8):
//
//   * Kernels are pure functions over a contiguous [data, data+size)
//     buffer. They never read outside it: vector loads cover only full
//     16/32-byte windows inside the range, and the remainder is finished
//     by the scalar tail. This is what makes the chunk-seam story trivial
//     — the parser buffers partial tokens across Feed() boundaries exactly
//     as before, and a kernel invoked on the (possibly short) buffered
//     window degrades to the identical scalar scan.
//   * Every implementation tier returns bit-identical results for every
//     (buffer, from) input. tests/xml/simd_scan_test.cc sweeps all
//     alignments and lengths, and the CI matrix runs the full xml/difftest
//     suites under VITEX_FORCE_SCALAR_SCAN=1 to hold the scalar path to
//     the same bar on every compiler.
//   * Byte sets are exact, not approximate: ScanWhitespaceRun matches the
//     XML production (space, tab, LF, CR) used for markup scanning, while
//     ScanAsciiSpaceRun matches IsAllWhitespace's 6-byte ASCII set used by
//     the node-level whitespace-suppression rule. The two differ on \f and
//     \v; collapsing them would silently change which text nodes are
//     suppressed.
//
// Mode selection: resolved once, in order —
//   1. VITEX_FORCE_SCALAR_SCAN env var set to anything but "" / "0":
//      scalar, regardless of CPU (the testing override);
//   2. CPU has AVX2 (and the binary carries the -mavx2 TU): AVX2;
//   3. x86-64: SSE2;
//   4. otherwise: scalar.

#ifndef VITEX_XML_SIMD_SCAN_H_
#define VITEX_XML_SIMD_SCAN_H_

#include <cstddef>
#include <string_view>

namespace vitex::xml::scan {

/// Returned by Find* kernels when no matching byte exists in range.
inline constexpr size_t kNotFound = static_cast<size_t>(-1);

enum class ScanMode : unsigned char { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The mode all kernels currently dispatch to. First call resolves it
/// (env override, then cpuid); later calls are a relaxed atomic load.
ScanMode ActiveScanMode();

/// "scalar", "sse2" or "avx2" — for the benchmark host stamp and logs.
std::string_view ScanModeName(ScanMode mode);

/// Pins kernels to `mode` for testing. Returns false (and changes
/// nothing) if that tier is unavailable on this CPU/build. Not intended
/// for use while parses are in flight on other threads.
bool ForceScanMode(ScanMode mode);

/// Drops any pin and re-resolves from the environment + CPU, as if the
/// process had just started. Test hook for exercising the env override.
void ResetScanModeFromEnvironment();

/// Index of the first '<' or '&' at or after `from`, else kNotFound.
/// The character-data scan: '<' terminates the text run, '&' tells the
/// parser the run needs entity decoding.
size_t FindMarkup(std::string_view s, size_t from);

/// Index of the first `quote` (caller passes '"' or '\'') or '&' at or
/// after `from`, else kNotFound. The attribute-value scan.
size_t FindQuoteOrAmp(std::string_view s, size_t from, char quote);

/// Index of the first byte at or after `from` that ends an XML name in
/// tag context: space, tab, LF, CR, '=', '/' or '>'. Returns s.size()
/// when the name runs to the end of the buffer.
size_t ScanNameEnd(std::string_view s, size_t from);

/// Index of the first byte at or after `from` that is NOT XML whitespace
/// (space, tab, LF, CR). Returns s.size() for an all-whitespace tail.
size_t ScanWhitespaceRun(std::string_view s, size_t from);

/// Like ScanWhitespaceRun but over the wider 6-byte ASCII set (adds \f,
/// \v) that IsAllWhitespace uses; drives the node-level whitespace
/// suppression check. s.substr(from) is all-whitespace iff this returns
/// s.size().
size_t ScanAsciiSpaceRun(std::string_view s, size_t from);

/// Index of the first `c` at or after `from`, else kNotFound. Used for
/// closing quotes, end-tag '>' and substring-start probes.
size_t FindByte(std::string_view s, size_t from, char c);

/// Index of the first '>', '"' or '\'' at or after `from`, else
/// kNotFound. The start-tag extent scan (quotes open skip regions).
size_t FindGtOrQuote(std::string_view s, size_t from);

}  // namespace vitex::xml::scan

#endif  // VITEX_XML_SIMD_SCAN_H_
