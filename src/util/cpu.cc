#include "util/cpu.h"

#include <atomic>
#include <cstdlib>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#endif

namespace sonata::util {

namespace {

// Dispatch cache: 0 = undecided, 1 = scalar, 2 = AVX2. A relaxed load is
// all the hot paths ever pay after the first decision.
std::atomic<int> g_simd_state{0};
// Test override: 0 = follow the environment, 1 = force scalar, 2 = force
// AVX2 (still gated on actual CPU support).
std::atomic<int> g_simd_override{0};

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

int decide_simd() noexcept {
  const int override = g_simd_override.load(std::memory_order_relaxed);
  if (override == 1) return 1;
  if (!cpu_has_avx2()) return 1;
  if (override == 2) return 2;
  // std::getenv is not thread-safe against setenv, but the decision runs
  // once at startup before workers spawn; tests use the explicit override.
  const char* no = std::getenv("SONATA_NO_AVX2");
  if (no != nullptr && no[0] != '\0' && !(no[0] == '0' && no[1] == '\0')) return 1;
  return 2;
}

const std::vector<int>& cores_impl() {
  static const std::vector<int> cores = [] {
    std::vector<int> out;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
#endif
    return out;
  }();
  return cores;
}

}  // namespace

bool avx2_enabled() noexcept {
  int state = g_simd_state.load(std::memory_order_relaxed);
  if (state == 0) {
    state = decide_simd();
    g_simd_state.store(state, std::memory_order_relaxed);
  }
  return state == 2;
}

const char* simd_level() noexcept { return avx2_enabled() ? "avx2" : "scalar"; }

void force_scalar_for_test(bool force_scalar, bool reset_to_env) {
  g_simd_override.store(reset_to_env ? 0 : (force_scalar ? 1 : 2), std::memory_order_relaxed);
  g_simd_state.store(0, std::memory_order_relaxed);  // re-decide on next query
}

std::size_t available_cores() noexcept {
  const std::size_t n = cores_impl().size();
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

int pin_thread_to_core(std::size_t worker_index) noexcept {
#if defined(__linux__)
  const std::vector<int>& cores = cores_impl();
  if (cores.empty()) return -1;
  const int core = cores[worker_index % cores.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) return -1;
  return core;
#else
  (void)worker_index;
  return -1;
#endif
}

int numa_node_of_core(int core) noexcept {
#if defined(__linux__)
  // /sys/devices/system/cpu/cpuN/ contains a nodeM symlink per NUMA node.
  char path[96];
  for (int node = 0; node < 64; ++node) {
    std::snprintf(path, sizeof path, "/sys/devices/system/cpu/cpu%d/node%d", core, node);
    if (access(path, F_OK) == 0) return node;
  }
  return -1;
#else
  (void)core;
  return -1;
#endif
}

bool advise_huge_pages(void* ptr, std::size_t len) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (ptr == nullptr || len == 0) return false;
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  const std::uintptr_t start = addr & ~(page - 1);
  const std::size_t full = ((addr + len + page - 1) & ~(page - 1)) - start;
  return madvise(reinterpret_cast<void*>(start), full, MADV_HUGEPAGE) == 0;
#else
  (void)ptr;
  (void)len;
  return false;
#endif
}

}  // namespace sonata::util
