// Seeded corpus-mutation test for the command-interpreter fuzz target
// (command_fuzz_target.cc), for builds without libFuzzer. The corpus is
// examples/scripts/*.sdb plus the even-rows planner probe; each seed runs
// 50 mutants of every corpus script — up to six drops, duplicates or swaps
// of lines and tokens, and perturbed numbers — each under a device byte of
// its own. The target's property is that no input aborts; a failing seed
// reproduces exactly. SYSTOLIC_FUZZ_SEEDS sets the number of seeds.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/strings.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace systolic {
namespace {

/// examples/scripts/*.sdb in name order, then the probe that pinned
/// marching on an even row count before the planner learned not to.
std::vector<std::string> Corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(SYSTOLIC_SOURCE_DIR) / "examples" /
           "scripts")) {
    if (entry.path().extension() == ".sdb") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back(text.str());
  }
  corpus.push_back(
      "LOAD A\nLOAD B\nBEGIN\nINTERSECT A B -> C\nCOMMIT\nPRINT C\n");
  return corpus;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
}

/// A number near the edges the parsers must reject or accept cleanly.
std::string PerturbedNumber(Rng& rng, const std::string& token) {
  switch (rng.Uniform(0, 5)) {
    case 0: return "0";
    case 1: return "-" + token;
    case 2: return token + token;  // far past int64 when long enough
    case 3: return "9223372036854775807";
    case 4: return "99999999999999999999";
    default: return std::to_string(rng.Uniform(-3, 70));
  }
}

/// Applies one random mutation to `lines`.
void Mutate(Rng& rng, std::vector<std::string>* lines) {
  if (lines->empty()) {
    lines->push_back("HELP");
    return;
  }
  const size_t at = Pick(rng, lines->size());
  std::vector<std::string> tokens = Split((*lines)[at], ' ');
  switch (rng.Uniform(0, 6)) {
    case 0:
      lines->erase(lines->begin() + static_cast<std::ptrdiff_t>(at));
      return;
    case 1:
      lines->insert(lines->begin() + static_cast<std::ptrdiff_t>(at),
                    (*lines)[at]);
      return;
    case 2:
      std::swap((*lines)[at], (*lines)[Pick(rng, lines->size())]);
      return;
    case 3:
      tokens.erase(tokens.begin() +
                   static_cast<std::ptrdiff_t>(Pick(rng, tokens.size())));
      break;
    case 4: {
      const size_t t = Pick(rng, tokens.size());
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                    tokens[t]);
      break;
    }
    case 5:
      std::swap(tokens[Pick(rng, tokens.size())],
                tokens[Pick(rng, tokens.size())]);
      break;
    default: {
      std::vector<size_t> numbers;
      for (size_t t = 0; t < tokens.size(); ++t) {
        if (!tokens[t].empty() &&
            std::isdigit(static_cast<unsigned char>(tokens[t].back()))) {
          numbers.push_back(t);
        }
      }
      if (numbers.empty()) return;
      std::string& token = tokens[numbers[Pick(rng, numbers.size())]];
      token = PerturbedNumber(rng, token);
      break;
    }
  }
  std::string joined;
  for (size_t t = 0; t < tokens.size(); ++t) {
    joined += (t == 0 ? "" : " ") + tokens[t];
  }
  (*lines)[at] = joined;
}

TEST(CommandInterpreterFuzz, MutatedCorpusNeverAborts) {
  const std::vector<std::string> corpus = Corpus();
  ASSERT_GE(corpus.size(), 3u);
  // About 1 s in Release at the default 20 seeds.
  constexpr size_t kMutantsPerScript = 50;
  const size_t seeds = testing::FuzzSeedCount(20);
  for (size_t seed = 0; seed < seeds; ++seed) {
    Rng rng(0xC0FFEE + seed);
    for (size_t mutant = 0; mutant < kMutantsPerScript * corpus.size();
         ++mutant) {
      std::vector<std::string> lines =
          SplitLines(corpus[mutant % corpus.size()]);
      const int64_t mutations = rng.Uniform(0, 6);
      for (int64_t k = 0; k < mutations; ++k) Mutate(rng, &lines);
      std::string input(1, static_cast<char>(rng.Uniform(0, 255)));
      for (const std::string& line : lines) input += line + "\n";
      SCOPED_TRACE("seed " + std::to_string(seed) + ", device byte " +
                   std::to_string(static_cast<uint8_t>(input[0])) +
                   ", input:\n" + input.substr(1));
      EXPECT_EQ(LLVMFuzzerTestOneInput(
                    reinterpret_cast<const uint8_t*>(input.data()),
                    input.size()),
                0);
    }
  }
}

}  // namespace
}  // namespace systolic
