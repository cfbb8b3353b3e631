// Replay / smoke-mutate driver for fuzz harnesses built without libFuzzer.
//
// Clang builds link the real libFuzzer engine instead of this file; GCC
// builds (the default container toolchain) get this driver so the same
// harness binaries exist everywhere and the committed corpus replays in
// plain ctest runs. The CLI is shaped like libFuzzer's so CMake can invoke
// either engine identically:
//
//   fuzz_xxx [-runs=0] FILE|DIR...     replay inputs, exit 0 if none crash
//   fuzz_xxx -mutate=N [-seed=S] DIR   N deterministic mutations seeded
//                                      from the corpus (smoke fuzzing; the
//                                      candidate input is written to
//                                      crash-candidate.bin before each run
//                                      so a crash leaves its reproducer)
//
// Flag values are strict unsigned decimals (campaign::parse_u64_token).
// A malformed value, a nonzero -runs= (fuzzing runs come from -mutate=)
// and any other -flag exit 2: a libFuzzer option this driver does not
// implement must not be silently ignored. Inputs are visited in sorted
// path order, so replay is deterministic.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/cli.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// xorshift64* — deterministic, self-contained (no std::random_device: the
// driver itself must obey the repo's determinism rules).
uint64_t rng_state = 0x9E3779B97F4A7C15ull;
uint64_t next_rand() {
  uint64_t x = rng_state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

void mutate(std::vector<uint8_t>& buf) {
  switch (next_rand() % 6) {
    case 0:  // flip a byte
      if (!buf.empty()) buf[next_rand() % buf.size()] ^= 1u << (next_rand() % 8);
      break;
    case 1:  // overwrite a byte
      if (!buf.empty()) buf[next_rand() % buf.size()] = static_cast<uint8_t>(next_rand());
      break;
    case 2:  // insert a byte
      buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(
                     buf.empty() ? 0 : next_rand() % (buf.size() + 1)),
                 static_cast<uint8_t>(next_rand()));
      break;
    case 3:  // erase a byte
      if (!buf.empty())
        buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(next_rand() % buf.size()));
      break;
    case 4:  // truncate
      if (!buf.empty()) buf.resize(next_rand() % buf.size());
      break;
    case 5: {  // duplicate a block
      if (buf.empty() || buf.size() > (1u << 16)) break;
      size_t at = next_rand() % buf.size();
      size_t n = std::min<size_t>(next_rand() % 64 + 1, buf.size() - at);
      std::vector<uint8_t> block(buf.begin() + static_cast<std::ptrdiff_t>(at),
                                 buf.begin() + static_cast<std::ptrdiff_t>(at + n));
      buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), block.begin(),
                 block.end());
      break;
    }
  }
}

/// If `arg` is `<flag><value>`, parses the value into `out`. Returns false
/// when `arg` is another flag; exits 2 on a malformed value.
bool flag_value(const std::string& arg, const char* flag, uint64_t& out) {
  const std::size_t n = std::strlen(flag);
  if (arg.compare(0, n, flag) != 0) return false;
  if (!dnstime::campaign::parse_u64_token(arg.c_str() + n, out)) {
    std::fprintf(stderr, "fuzz driver: %s needs an unsigned decimal: %s\n",
                 flag, arg.c_str());
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> inputs;
  uint64_t mutate_iters = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t value = 0;
    if (flag_value(arg, "-mutate=", mutate_iters)) continue;
    if (flag_value(arg, "-seed=", value)) {
      rng_state = value | 1;
    } else if (flag_value(arg, "-runs=", value)) {
      if (value != 0) {
        std::fprintf(stderr,
                     "fuzz driver: -runs=%s is not implemented; only "
                     "-runs=0 (replay) is, use -mutate=N to fuzz\n",
                     arg.c_str() + 6);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fuzz driver: unsupported flag: %s\n",
                   arg.c_str());
      return 2;
    } else if (fs::is_directory(arg)) {
      for (const auto& e : fs::recursive_directory_iterator(arg)) {
        if (e.is_regular_file()) inputs.push_back(e.path());
      }
    } else if (fs::exists(arg)) {
      inputs.emplace_back(arg);
    } else {
      std::fprintf(stderr, "fuzz driver: no such input: %s\n", arg.c_str());
      return 2;
    }
  }
  std::sort(inputs.begin(), inputs.end());

  std::vector<std::vector<uint8_t>> pool;
  for (const auto& p : inputs) {
    std::vector<uint8_t> bytes = read_file(p);
    std::fprintf(stderr, "Running: %s (%zu bytes)\n", p.string().c_str(),
                 bytes.size());
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    pool.push_back(std::move(bytes));
  }
  std::fprintf(stderr, "Replayed %zu inputs.\n", pool.size());

  if (mutate_iters != 0) {
    if (pool.empty()) pool.emplace_back();  // fuzz from the empty input
    for (uint64_t i = 0; i < mutate_iters; ++i) {
      std::vector<uint8_t> buf = pool[next_rand() % pool.size()];
      uint64_t rounds = next_rand() % 8 + 1;
      for (uint64_t r = 0; r < rounds; ++r) mutate(buf);
      {
        // Persist before running: a crash below leaves its reproducer.
        std::ofstream out("crash-candidate.bin", std::ios::binary);
        out.write(reinterpret_cast<const char*>(buf.data()),
                  static_cast<std::streamsize>(buf.size()));
      }
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      if ((i + 1) % 10000 == 0)
        std::fprintf(stderr, "  %llu mutations...\n",
                     static_cast<unsigned long long>(i + 1));
    }
    std::remove("crash-candidate.bin");
    std::fprintf(stderr, "Survived %llu mutations.\n",
                 static_cast<unsigned long long>(mutate_iters));
  }
  return 0;
}
