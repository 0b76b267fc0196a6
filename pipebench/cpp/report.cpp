#include "report.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace pipebench {

namespace {

void require_plain(const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      throw std::invalid_argument("metric text needs JSON escaping: " + text);
    }
  }
}

}  // namespace

double PhaseCount::failed_share() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric value is not finite");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string metric_line(const Metric& metric) {
  return "metric " + metric.name + " = " + format_number(metric.value) + " " +
         metric.unit + " (n=" + std::to_string(metric.samples) + " " +
         metric.sample_kind + ")";
}

std::string phase_line(const PhaseCount& count) {
  return "phase " + count.phase + ": attempted=" +
         std::to_string(count.attempted) +
         " succeeded=" + std::to_string(count.succeeded()) +
         " failed=" + std::to_string(count.failed) +
         " failed_share=" + format_number(count.failed_share());
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, std::span<const Metric> metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    require_plain(metrics[i].name);
    require_plain(metrics[i].unit);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace pipebench
