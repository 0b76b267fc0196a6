// Lariat/XALT application identification.
//
// On TACC systems, Lariat records the executable path of every job
// launched through `ibrun`.  SUPReMM matches that path against a list of
// known community applications; the paper's three pools follow directly:
//
//   * Identified     — the path matched a community application;
//   * Uncategorized  — a path was captured but matched nothing (user
//                      binaries named "a.out", "main", "data", ...);
//   * NA             — the job was not launched via ibrun, so no Lariat
//                      record exists at all.
//
// `ApplicationTable` holds the community-application list (name, broad
// category, path patterns); `identify()` reproduces the matching logic.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "supremm/job_summary.hpp"

namespace xdmodml::lariat {

/// One community application: canonical name, broad category (paper
/// Table 3 grouping), and the executable basename patterns that match it.
struct ApplicationEntry {
  std::string name;
  std::string category;
  std::vector<std::string> executable_patterns;  ///< matched vs basename
};

/// Result of identifying one executable path.
struct Identification {
  supremm::LabelSource source = supremm::LabelSource::kNotAvailable;
  std::string application;  ///< set only when source == kIdentified
  std::string category;     ///< set only when source == kIdentified
};

/// The community-application table.
class ApplicationTable {
 public:
  /// Builds the default table covering the paper's 20 confusion-matrix
  /// applications plus the extra category members used in Table 3.
  static ApplicationTable standard();

  explicit ApplicationTable(std::vector<ApplicationEntry> entries);

  const std::vector<ApplicationEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// All application names, in table order.
  std::vector<std::string> application_names() const;

  /// All distinct categories, in first-seen order.
  std::vector<std::string> categories() const;

  /// Looks up an application by name.
  const ApplicationEntry* find(std::string_view name) const;

  /// Identifies a Lariat executable path.  An empty path means no Lariat
  /// record (NA pool).  Matching is case-insensitive on the basename:
  /// a pattern matches if the basename starts with it (so "vasp" matches
  /// "vasp_std", "vasp_gam", ...).
  Identification identify(std::string_view executable_path) const;

 private:
  std::vector<ApplicationEntry> entries_;
  /// Every pattern lower-cased once, with its entry's index, in table
  /// order: identify() lowers only the basename.
  std::vector<std::pair<std::string, std::size_t>> patterns_;
};

/// Typical uncategorizable executable names (the paper's examples).
const std::vector<std::string>& common_user_binary_names();

}  // namespace xdmodml::lariat
