#include "lariat/lariat.hpp"

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace xdmodml::lariat {

ApplicationTable::ApplicationTable(std::vector<ApplicationEntry> entries)
    : entries_(std::move(entries)) {
  XDMODML_CHECK(!entries_.empty(), "application table requires entries");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    XDMODML_CHECK(!e.name.empty() && !e.category.empty() &&
                      !e.executable_patterns.empty(),
                  "application entries need name, category and patterns");
    for (const auto& pattern : e.executable_patterns) {
      patterns_.emplace_back(to_lower(pattern), i);
    }
  }
}

ApplicationTable ApplicationTable::standard() {
  // The paper's Table 2 applications plus additional category members so
  // every Table 3 group is populated.  Categories use the paper's names:
  // Astrophysics, benchmark, CFD, E&M,photonics, Lattice QCD, Math,
  // Matlab, MD, Python, QC, QC,ES.
  std::vector<ApplicationEntry> entries{
      {"AMBER", "MD", {"pmemd", "sander", "amber"}},
      {"ARPS", "CFD", {"arps"}},
      {"CACTUS", "Astrophysics", {"cactus"}},
      {"CHARMM++", "MD", {"charmrun", "charm++"}},
      {"CHARMM", "MD", {"charmm"}},
      {"CP2K", "QC,ES", {"cp2k"}},
      {"ENZO", "Astrophysics", {"enzo"}},
      {"FD3D", "Math", {"fd3d"}},
      {"FLASH4", "Astrophysics", {"flash4", "flash"}},
      {"GADGET", "Astrophysics", {"gadget"}},
      {"GROMACS", "MD", {"gmx", "mdrun", "gromacs"}},
      {"IFORTDDWN", "benchmark", {"ifortddwn"}},
      {"LAMMPS", "MD", {"lmp", "lammps"}},
      {"NAMD", "MD", {"namd"}},
      {"OPENFOAM", "CFD", {"simplefoam", "pimplefoam", "icofoam", "foam"}},
      {"PYTHON", "Python", {"python"}},
      {"Q-ESPRESSO", "QC,ES", {"pw.x", "ph.x", "cp.x", "espresso"}},
      {"SIESTA", "QC,ES", {"siesta"}},
      {"VASP", "QC,ES", {"vasp"}},
      {"WRF", "CFD", {"wrf"}},
      // Additional community applications filling out the Table 3 groups.
      {"MATLAB", "Matlab", {"matlab"}},
      {"HPL", "benchmark", {"xhpl", "hpl"}},
      {"MILC", "Lattice QCD", {"su3_", "milc"}},
      {"CHROMA", "Lattice QCD", {"chroma"}},
      {"GAUSSIAN", "QC", {"g09", "g03", "gaussian"}},
      {"NWCHEM", "QC", {"nwchem"}},
      {"GAMESS", "QC", {"gamess"}},
      {"MEEP", "E&M,photonics", {"meep"}},
      {"PETSC", "Math", {"petsc"}},
  };
  return ApplicationTable(std::move(entries));
}

std::vector<std::string> ApplicationTable::application_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& e : entries_) names.push_back(e.name);
  return names;
}

std::vector<std::string> ApplicationTable::categories() const {
  std::vector<std::string> cats;
  for (const auto& e : entries_) {
    bool seen = false;
    for (const auto& c : cats) {
      if (c == e.category) {
        seen = true;
        break;
      }
    }
    if (!seen) cats.push_back(e.category);
  }
  return cats;
}

const ApplicationEntry* ApplicationTable::find(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Identification ApplicationTable::identify(
    std::string_view executable_path) const {
  Identification id;
  if (executable_path.empty()) {
    id.source = supremm::LabelSource::kNotAvailable;  // no Lariat record
    return id;
  }
  const std::string base = to_lower(basename(executable_path));
  for (const auto& [pattern, entry] : patterns_) {
    if (starts_with(base, pattern)) {
      id.source = supremm::LabelSource::kIdentified;
      id.application = entries_[entry].name;
      id.category = entries_[entry].category;
      return id;
    }
  }
  id.source = supremm::LabelSource::kUncategorized;
  return id;
}

const std::vector<std::string>& common_user_binary_names() {
  static const std::vector<std::string> names{
      "a.out", "main", "data",  "run",   "test", "exec",
      "sim",   "app",  "model", "solve", "calc", "md_custom",
  };
  return names;
}

}  // namespace xdmodml::lariat
