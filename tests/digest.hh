/**
 * @file
 * FNV-1a digests for the golden-output tests.
 *
 * A golden table pins a digest of each scenario's or gadget's output,
 * recorded from a known-good build. A change that moves one of them
 * changes the science, and must update the table and say why.
 */

#ifndef HR_TESTS_DIGEST_HH
#define HR_TESTS_DIGEST_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace hr
{

/** Incremental 64-bit FNV-1a. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void text(const std::string &s) { bytes(s.data(), s.size()); }

    /** Little-endian bytes of @p v, so the digest is host-portable. */
    void
    u64(std::uint64_t v)
    {
        unsigned char le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(le, sizeof le);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** "0x%016llx", for pasting into a golden table. */
inline std::string
hexDigest(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace hr

#endif // HR_TESTS_DIGEST_HH
