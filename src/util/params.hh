/**
 * @file
 * String-keyed parameter set with typed accessors.
 *
 * ParamSet is the universal "loose configuration" currency: scenario
 * parameters (`--param key=value`), gadget construction overrides
 * (GadgetRegistry::make), and sweep grid points all travel as one of
 * these. Values are stored as strings and parsed on access, so every
 * consumer documents its keys and defaults at the point of use.
 */

#ifndef HR_UTIL_PARAMS_HH
#define HR_UTIL_PARAMS_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hr
{

/** Levenshtein edit distance (typo suggestions). */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The candidate closest to @p needle by edit distance, or "" when
 * nothing is close enough to plausibly be a typo (distance must be
 * under half the needle's length, and at most 4).
 */
std::string closestMatch(const std::string &needle,
                         const std::vector<std::string> &candidates);

/**
 * All of @p text as a base-@p base integer (base 0 also takes the 0x
 * and 0 prefixes), or nullopt on empty text, trailing junk (`1x`), or
 * a value outside `long long`.
 */
std::optional<long long> parseInteger(const std::string &text, int base);

/** String-keyed parameters with typed accessors. */
class ParamSet
{
  public:
    void set(const std::string &key, const std::string &value);

    /** Parse "key=value" (fatal if '=' is missing). */
    void setFromArg(const std::string &arg);

    bool has(const std::string &key) const;
    std::string get(const std::string &key, const std::string &def) const;
    long long getInt(const std::string &key, long long def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** Union: entries of @p other override entries of *this. */
    ParamSet overriddenBy(const ParamSet &other) const;

    /**
     * Fatal unless every key is one of @p allowed. The error names
     * @p subject (e.g. "gadget 'pa_race'"), lists the valid keys, and
     * suggests the nearest match for the offending key — so a sweep
     * typo like `--grid slowops=...` fails with "did you mean
     * 'slow_ops'?" instead of being silently ignored.
     */
    void requireKeys(const std::vector<std::string> &allowed,
                     const std::string &subject) const;

    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace hr

#endif // HR_UTIL_PARAMS_HH
