//===- Cli.h - shared command-line option parser ----------------*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One option parser for every tool, so flag names and semantics stay
/// aligned across barracuda-run, barracuda-instrument and
/// barracuda-replay (--stats, --json, --trace-json, --no-profile,
/// --queues, --expect-races all mean the same thing everywhere).
///
/// \code
///   support::cli::Parser P("barracuda-run", "FILE.ptx");
///   bool Stats = false;
///   P.flag("--stats", Stats, "print run statistics");
///   unsigned Queues = 4;
///   P.uintOption("--queues", "N", Queues, "device-to-host queues");
///   if (!P.parse(ArgCount, Args))
///     return 2;          // error + usage already printed
///   std::string File = P.positional();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_SUPPORT_CLI_H
#define BARRACUDA_SUPPORT_CLI_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace barracuda {
namespace support {
namespace cli {

/// A declarative option table plus one optional positional argument.
class Parser {
public:
  /// \p Positional is the usage label of the positional argument
  /// ("FILE.ptx"); empty means the tool takes none. When non-empty the
  /// positional is required.
  Parser(std::string Program, std::string Positional);

  /// A boolean switch: present sets \p Target true.
  void flag(const char *Name, bool &Target, const char *Help);

  /// A switch that *clears* \p Target (e.g. --no-profile turning
  /// profiling off).
  void flagOff(const char *Name, bool &Target, const char *Help);

  /// An option taking a value; \p Handler returns false to reject it.
  void option(const char *Name, const char *ValueLabel,
              std::function<bool(const char *)> Handler, const char *Help);

  /// Typed conveniences over option().
  void stringOption(const char *Name, const char *ValueLabel,
                    std::string &Target, const char *Help);
  void uintOption(const char *Name, const char *ValueLabel,
                  unsigned &Target, const char *Help);
  void u64Option(const char *Name, const char *ValueLabel,
                 uint64_t &Target, const char *Help);

  /// An option that may repeat; every occurrence calls \p Handler.
  void repeatedOption(const char *Name, const char *ValueLabel,
                      std::function<bool(const char *)> Handler,
                      const char *Help);

  /// Parses the command line. On failure prints the error and usage to
  /// stderr and returns false (callers exit 2).
  bool parse(int ArgCount, char **Args);

  const std::string &positional() const { return Positional_; }

  void usage(std::FILE *Out) const;

private:
  struct Option {
    std::string Name;
    std::string ValueLabel; ///< empty for switches
    std::string Help;
    std::function<bool(const char *)> Handler; ///< null for switches
    bool *Flag = nullptr;
    bool FlagValue = true;
  };

  bool fail(const std::string &Message);

  std::string Program;
  std::string PositionalLabel;
  std::string Positional_;
  std::vector<Option> Options;
};

} // namespace cli
} // namespace support
} // namespace barracuda

#endif // BARRACUDA_SUPPORT_CLI_H
