#include "common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace fairhms {
namespace perfbench {

std::string NormalizeReply(std::string s) {
  static const std::string kWarmStart = ", \"warm_start\": true";
  for (size_t pos; (pos = s.find(kWarmStart)) != std::string::npos;) {
    s.erase(pos, kWarmStart.size());
  }
  for (const char* key : {"seq", "solve_ms", "total_ms"}) {
    const std::string needle = std::string("\"") + key + "\": ";
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      const size_t start = pos + needle.size();
      size_t end = start;
      while (end < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[end])) ||
              std::strchr(".eE+-", s[end]) != nullptr)) {
        ++end;
      }
      s.replace(start, end - start, "T");
      pos = start + 1;
    }
  }
  return s;
}

uint64_t Fnv1a(const std::vector<std::string>& lines) {
  uint64_t hash = 1469598103934665603ull;
  for (const std::string& line : lines) {
    for (const char c : line) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= static_cast<unsigned char>('\n');
    hash *= 1099511628211ull;
  }
  return hash;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double RegularizedBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double HarrellDavis(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double upto = RegularizedBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * v[i];
    below = upto;
  }
  return estimate;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double NumberField(const std::string& reply, const std::string& key,
                   double fallback) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = reply.find(needle);
  if (pos == std::string::npos) return fallback;
  const char* begin = reply.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  return end == begin ? fallback : v;
}

}  // namespace perfbench
}  // namespace fairhms
