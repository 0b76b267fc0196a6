// Tests for Lariat/XALT application identification.
#include "lariat/lariat.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace xdmodml::lariat {
namespace {

using supremm::LabelSource;

TEST(ApplicationTable, StandardCoversTable2Apps) {
  const auto table = ApplicationTable::standard();
  for (const char* app :
       {"AMBER", "ARPS", "CACTUS", "CHARMM++", "CHARMM", "CP2K", "ENZO",
        "FD3D", "FLASH4", "GADGET", "GROMACS", "IFORTDDWN", "LAMMPS",
        "NAMD", "OPENFOAM", "PYTHON", "Q-ESPRESSO", "SIESTA", "VASP",
        "WRF"}) {
    EXPECT_NE(table.find(app), nullptr) << "missing " << app;
  }
}

TEST(ApplicationTable, StandardCoversTable3Categories) {
  const auto cats = ApplicationTable::standard().categories();
  for (const char* cat :
       {"Astrophysics", "benchmark", "CFD", "E&M,photonics", "Lattice QCD",
        "Math", "Matlab", "MD", "Python", "QC", "QC,ES"}) {
    EXPECT_NE(std::find(cats.begin(), cats.end(), cat), cats.end())
        << "missing category " << cat;
  }
}

TEST(ApplicationTable, IdentifiesKnownPaths) {
  const auto table = ApplicationTable::standard();
  const auto id = table.identify("/opt/apps/vasp/5.3/vasp_std");
  EXPECT_EQ(id.source, LabelSource::kIdentified);
  EXPECT_EQ(id.application, "VASP");
  EXPECT_EQ(id.category, "QC,ES");
}

TEST(ApplicationTable, MatchIsCaseInsensitiveOnBasename) {
  const auto table = ApplicationTable::standard();
  EXPECT_EQ(table.identify("/home/u/VASP_GAM").application, "VASP");
  EXPECT_EQ(table.identify("/opt/apps/NAMD2").application, "NAMD");
}

TEST(ApplicationTable, UpperCasePatternInACustomTableMatches) {
  // The table lowers its patterns, not only the basename it is asked
  // about; the first match in table order still wins.
  const ApplicationTable table({{"VASP", "QC,ES", {"VASP"}},
                                {"VASP-GAMMA", "QC,ES", {"Vasp_Gam"}}});
  EXPECT_EQ(table.identify("/x/vasp_std").application, "VASP");
  EXPECT_EQ(table.identify("/x/VASP_GAM").application, "VASP");
  EXPECT_EQ(table.identify("/x/vas").source, LabelSource::kUncategorized);
}

TEST(ApplicationTable, PrefixMatchesVariants) {
  const auto table = ApplicationTable::standard();
  EXPECT_EQ(table.identify("/x/lmp_stampede").application, "LAMMPS");
  EXPECT_EQ(table.identify("/x/namd2_ibverbs").application, "NAMD");
  EXPECT_EQ(table.identify("/x/python2.7").application, "PYTHON");
  EXPECT_EQ(table.identify("/x/pw.x").application, "Q-ESPRESSO");
}

TEST(ApplicationTable, CharmmPlusPlusVsCharmm) {
  const auto table = ApplicationTable::standard();
  EXPECT_EQ(table.identify("/x/charmrun").application, "CHARMM++");
  EXPECT_EQ(table.identify("/x/charmm").application, "CHARMM");
}

TEST(ApplicationTable, UserBinariesAreUncategorized) {
  const auto table = ApplicationTable::standard();
  for (const auto& name : common_user_binary_names()) {
    const auto id = table.identify("/home/user123/" + name);
    EXPECT_EQ(id.source, LabelSource::kUncategorized) << name;
    EXPECT_TRUE(id.application.empty());
  }
}

TEST(ApplicationTable, EmptyPathIsNa) {
  const auto table = ApplicationTable::standard();
  EXPECT_EQ(table.identify("").source, LabelSource::kNotAvailable);
}

TEST(ApplicationTable, NamesAndSize) {
  const auto table = ApplicationTable::standard();
  const auto names = table.application_names();
  EXPECT_EQ(names.size(), table.size());
  EXPECT_GE(names.size(), 20u);
}

TEST(ApplicationTable, ValidatesEntries) {
  EXPECT_THROW(ApplicationTable(std::vector<ApplicationEntry>{}),
               InvalidArgument);
  EXPECT_THROW(
      ApplicationTable(std::vector<ApplicationEntry>{{"X", "", {"x"}}}),
      InvalidArgument);
  EXPECT_THROW(
      ApplicationTable(std::vector<ApplicationEntry>{{"X", "cat", {}}}),
      InvalidArgument);
}

}  // namespace
}  // namespace xdmodml::lariat
