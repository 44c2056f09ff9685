// CPU topology and SIMD feature dispatch for the vectorized data path.
//
// Everything here is decided once per process (or re-decided under test
// control) so the hot paths pay a single relaxed load — never a cpuid, an
// getenv, or a syscall. Three concerns live together because they answer
// the same question — "what does this machine actually give us?":
//
//  * SIMD level: AVX2 is used only when the CPU reports it AND the
//    `SONATA_NO_AVX2` environment override is not set. Every vector kernel
//    in the tree keeps a guarded scalar fallback that is bit-identical by
//    construction, so flipping the override must never change results —
//    the SIMD differential suite asserts exactly that.
//  * Core inventory: `available_cores()` honours the process affinity mask
//    (sched_getaffinity), not the raw hardware_concurrency() — a container
//    pinned to one core must report 1, and every BENCH_*.json records the
//    honest number so trajectories compare across machines.
//  * Placement: `pin_thread_to_core()` pins a worker to one allowed core
//    (NUMA-locality falls out on multi-socket boxes because consecutive
//    workers land on consecutive cores of the same node first), and
//    `numa_node_of_core()` reports the node for observability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sonata::util {

// True when the AVX2 kernels are active: CPU support present and the
// SONATA_NO_AVX2 override unset. Cached after the first call.
[[nodiscard]] bool avx2_enabled() noexcept;

// Human-readable dispatch level for bench output: "avx2" or "scalar".
[[nodiscard]] const char* simd_level() noexcept;

// Test hook: force the dispatch decision (true = AVX2 if the CPU has it,
// false = scalar) and invalidate the cache so the next avx2_enabled() call
// re-evaluates. The differential tests flip this to run both paths in one
// process. Passing `reset_to_env = true` restores environment-driven
// behaviour.
void force_scalar_for_test(bool force_scalar, bool reset_to_env = false);

// Number of cores this process may actually run on (the affinity mask
// cardinality), falling back to hardware_concurrency when the mask is
// unreadable. Never returns 0.
[[nodiscard]] std::size_t available_cores() noexcept;

// Pin the calling thread to the worker_index-th allowed core (round-robin
// over the affinity mask). Returns the core id on success, -1 on failure
// or when pinning is pointless (a single allowed core already implies it).
int pin_thread_to_core(std::size_t worker_index) noexcept;

// Best-effort NUMA node of a core (reads /sys); -1 when unknown. Linux
// only; other platforms always report -1.
[[nodiscard]] int numa_node_of_core(int core) noexcept;

// Advise the kernel to back [ptr, ptr+len) with transparent huge pages
// (madvise MADV_HUGEPAGE). Best-effort: returns false when unsupported or
// refused, and the caller proceeds with 4 KiB pages unchanged. `ptr` need
// not be page-aligned; the advised range is widened to page boundaries.
bool advise_huge_pages(void* ptr, std::size_t len) noexcept;

}  // namespace sonata::util
