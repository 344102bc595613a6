#include "ml/kernels/backend.hpp"

#include <atomic>
#include <cstdlib>

#include "common/error.hpp"

namespace zeiot::ml::kernels {

namespace {

const Backend kScalarBackend{
    BackendKind::Scalar,
    "scalar",
    &detail::sgemm_accum_scalar,
    &detail::sgemm_abt_accum_scalar,
};

const Backend* table_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::Scalar:
      return &kScalarBackend;
    case BackendKind::Avx2:
      return detail::cpu_has_avx2_fma() ? detail::avx2_backend() : nullptr;
    case BackendKind::Neon:
      return nullptr;  // recognised name, no implementation yet
  }
  return nullptr;
}

const Backend* best_available() {
  if (const Backend* avx2 = table_for(BackendKind::Avx2)) return avx2;
  return &kScalarBackend;
}

const Backend* select_startup_backend() {
  const char* env = std::getenv("ZEIOT_KERNEL_BACKEND");
  if (env == nullptr || *env == '\0') return best_available();
  const BackendKind kind = parse_backend(env);
  const Backend* table = table_for(kind);
  ZEIOT_CHECK_MSG(table != nullptr,
                  std::string("ZEIOT_KERNEL_BACKEND=") + env +
                      " requested but that backend is unavailable on this "
                      "host/build");
  return table;
}

std::atomic<const Backend*>& active_slot() {
  static std::atomic<const Backend*> slot{nullptr};
  return slot;
}

}  // namespace

const Backend& active_backend() {
  const Backend* cur = active_slot().load(std::memory_order_acquire);
  if (cur != nullptr) return *cur;
  // First use (or races on first use: select_startup_backend is pure, every
  // racer stores the same pointer).
  const Backend* chosen = select_startup_backend();
  active_slot().store(chosen, std::memory_order_release);
  return *chosen;
}

bool backend_available(BackendKind kind) { return table_for(kind) != nullptr; }

void set_backend(BackendKind kind) {
  const Backend* table = table_for(kind);
  ZEIOT_CHECK_MSG(table != nullptr,
                  std::string("kernel backend '") + backend_name(kind) +
                      "' is unavailable on this host/build");
  active_slot().store(table, std::memory_order_release);
}

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Scalar:
      return "scalar";
    case BackendKind::Avx2:
      return "avx2";
    case BackendKind::Neon:
      return "neon";
  }
  return "?";
}

BackendKind parse_backend(const std::string& name) {
  if (name.empty() || name == "auto") {
    return best_available()->kind;
  }
  if (name == "scalar") return BackendKind::Scalar;
  if (name == "avx2") return BackendKind::Avx2;
  if (name == "neon") return BackendKind::Neon;
  throw Error("unknown kernel backend '" + name +
              "' (expected scalar, avx2, neon, or auto)");
}

ScopedBackend::ScopedBackend(BackendKind kind)
    : prev_(active_backend().kind) {
  set_backend(kind);
}

ScopedBackend::~ScopedBackend() { set_backend(prev_); }

namespace detail {

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace detail

}  // namespace zeiot::ml::kernels
