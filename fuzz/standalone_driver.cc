// Minimal libFuzzer-compatible driver, linked into the fuzz targets when
// the toolchain has no -fsanitize=fuzzer runtime (e.g. a gcc-only box).
// It understands the subset of the libFuzzer CLI that tools/run_ci.sh and
// docs/FUZZING.md use:
//
//   fuzz_<name> [flags] [file|dir]...
//
//   -runs=N             stop after N mutation executions (0 = replay only)
//   -max_total_time=S   stop mutating after S seconds
//   -seed=N             RNG seed for the mutation loop (default 1)
//
// Positional arguments are replayed first (directories recursively, in
// sorted order). If a time or run budget remains afterwards, the driver
// loops: pick a replayed input (or start empty), run it through the
// target's grammar-aware LLVMFuzzerCustomMutator, execute. There is no
// coverage feedback — this is a smoke / regression driver, not a real
// fuzzer; install clang + libFuzzer for the real thing.
//
// Unknown -flags are ignored with a note, so libFuzzer invocations keep
// working unchanged.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);
extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned int seed);

namespace {

constexpr size_t kMaxInputSize = 1 << 16;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

// The input currently executing, mirrored like libFuzzer's crash
// artifacts: on SIGABRT (RTP_CHECK, sanitizer aborts) the handler dumps
// it to ./crash-standalone so the failure can be replayed and minimized.
const uint8_t* g_current_data = nullptr;
size_t g_current_size = 0;

void AbortHandler(int sig) {
  // async-signal-safe: open/write/fsync only.
  int fd = open("crash-standalone", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0 && g_current_data != nullptr) {
    ssize_t ignored = write(fd, g_current_data, g_current_size);
    (void)ignored;
    fsync(fd);
    close(fd);
    const char msg[] = "INFO: wrote failing input to ./crash-standalone\n";
    ignored = write(2, msg, sizeof(msg) - 1);
    (void)ignored;
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

int RunOne(const uint8_t* data, size_t size) {
  g_current_data = data;
  g_current_size = size;
  // RTP_STANDALONE_DUMP=<path>: persist every input *before* running it,
  // so hangs (not only aborts) leave the culprit behind.
  static const char* dump_path = std::getenv("RTP_STANDALONE_DUMP");
  if (dump_path != nullptr) {
    std::ofstream out(dump_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  return LLVMFuzzerTestOneInput(data, size);
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGABRT, AbortHandler);
  long long runs = -1;
  long long max_total_time = 0;
  uint64_t seed = 1;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("-runs=", 0) == 0) {
      runs = std::atoll(arg.c_str() + 6);
    } else if (arg.rfind("-max_total_time=", 0) == 0) {
      max_total_time = std::atoll(arg.c_str() + 16);
    } else if (arg.rfind("-seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "INFO: standalone driver ignoring flag %s\n",
                   arg.c_str());
    } else {
      inputs.push_back(arg);
    }
  }

  // Replay phase: every file under every positional argument, sorted.
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(input)) {
        if (entry.is_regular_file()) files.push_back(entry.path().string());
      }
    } else {
      files.push_back(input);
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<std::string> pool;
  for (const std::string& file : files) {
    std::string bytes;
    if (!ReadFile(file, &bytes)) {
      std::fprintf(stderr, "ERROR: cannot read %s\n", file.c_str());
      return 1;
    }
    std::fprintf(stderr, "Running: %s (%zu bytes)\n", file.c_str(),
                 bytes.size());
    RunOne(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    pool.push_back(std::move(bytes));
  }
  std::fprintf(stderr, "INFO: replayed %zu file(s)\n", files.size());

  // Mutation phase. Deterministic in -seed, so a crash reproduces by
  // rerunning the identical command line.
  if (max_total_time <= 0 && runs <= 0) return 0;
  std::fprintf(stderr,
               "INFO: standalone mutation loop: seed=%llu runs=%lld "
               "max_total_time=%llds\n",
               static_cast<unsigned long long>(seed), runs, max_total_time);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(max_total_time > 0 ? max_total_time
                                                          : 86400LL);
  rtp::Rng rng(seed ? seed : 1);
  std::vector<uint8_t> buf(kMaxInputSize);
  long long executed = 0;
  while ((runs <= 0 || executed < runs) &&
         std::chrono::steady_clock::now() < deadline) {
    size_t size = 0;
    if (!pool.empty()) {
      const std::string& base = pool[rng.Below(pool.size())];
      size = std::min(base.size(), buf.size());
      std::memcpy(buf.data(), base.data(), size);
    }
    size = LLVMFuzzerCustomMutator(
        buf.data(), size, buf.size(),
        static_cast<unsigned int>(rng.Next()));
    RunOne(buf.data(), size);
    ++executed;
  }
  std::fprintf(stderr, "INFO: executed %lld mutated input(s)\n", executed);
  return 0;
}
