#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

volatile std::uint64_t g_sink;
volatile float g_fsink;

std::uint64_t Next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double SortMs() {
  serenity::util::Stopwatch clock;
  std::vector<std::uint32_t> a(4096);
  std::uint64_t x = 88172645463325252ull, acc = 0;
  for (int rep = 0; rep < 40; ++rep) {
    for (auto& v : a) v = static_cast<std::uint32_t>(Next(x));
    std::sort(a.begin(), a.end());
    acc += a[static_cast<std::size_t>(rep)];
  }
  g_sink = acc;
  return clock.ElapsedMillis();
}

double HashMs() {
  serenity::util::Stopwatch clock;
  const std::size_t n = std::size_t{1} << 20;
  std::vector<std::uint64_t> table(n, 0);
  std::uint64_t x = 88172645463325252ull, acc = 0;
  for (int i = 0; i < 500000; ++i) {
    const std::uint64_t key = Next(x);
    std::size_t h = (key * 0x9E3779B97F4A7C15ull) >> 44;
    while (table[h] != 0 && table[h] != key) h = (h + 1) & (n - 1);
    table[h] = key;
    acc += h;
  }
  for (int i = 0; i < 500000; ++i) acc += table[Next(x) & (n - 1)];
  g_sink = acc;
  return clock.ElapsedMillis();
}

double FpMs() {
  serenity::util::Stopwatch clock;
  constexpr int kC = 16, kH = 32, kW = 32;
  std::vector<float> in(kC * kH * kW), out(kC * kH * kW), w(kC * kC * 9);
  std::uint64_t x = 88172645463325252ull;
  for (auto& v : in) v = static_cast<float>(Next(x) % 1000) * 1e-3f;
  for (auto& v : w) v = static_cast<float>(Next(x) % 1000) * 1e-4f;
  for (int rep = 0; rep < 6; ++rep) {
    for (int co = 0; co < kC; ++co) {
      for (int y = 1; y + 1 < kH; ++y) {
        for (int xx = 1; xx + 1 < kW; ++xx) {
          float s = 0;
          for (int ci = 0; ci < kC; ++ci) {
            const float* wp = &w[(co * kC + ci) * 9];
            const float* ip = &in[(ci * kH + y - 1) * kW + xx - 1];
            for (int ky = 0; ky < 3; ++ky) {
              for (int kx = 0; kx < 3; ++kx) {
                s += wp[ky * 3 + kx] * ip[ky * kW + kx];
              }
            }
          }
          out[(co * kH + y) * kW + xx] = s;
        }
      }
    }
    std::swap(in, out);
  }
  g_fsink = in[kW + 1];
  return clock.ElapsedMillis();
}

}  // namespace

void HostScale::Sample() {
  pass_ms_.push_back(SortMs() + HashMs() + FpMs());
}

double HostScale::factor() const {
  return pass_ms_.empty() ? 1.0 : kReferencePassMs / median_pass_ms();
}

double HostScale::median_pass_ms() const { return Median(pass_ms_); }

}  // namespace perfbench
