// Molecular topology: atoms, connectivity, exclusions, constraints,
// virtual sites.  This is the static description of a system; dynamic state
// (positions/velocities/box) lives in md::State.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "math/vec.hpp"

namespace antmd {

/// Harmonic bond U = k (r - r0)^2 (note: k includes the conventional 1/2
/// only if the caller folds it in; antmd uses U = k (r-r0)^2 throughout).
struct Bond {
  uint32_t i = 0, j = 0;
  double k = 0.0;   ///< kcal/mol/Å²
  double r0 = 0.0;  ///< Å
};

/// Harmonic angle U = k (theta - theta0)^2.
struct Angle {
  uint32_t i = 0, j = 0, k_atom = 0;  ///< j is the apex
  double k = 0.0;       ///< kcal/mol/rad²
  double theta0 = 0.0;  ///< radians
};

/// Periodic (proper) dihedral U = k (1 + cos(n phi - phi0)).
struct Dihedral {
  uint32_t i = 0, j = 0, k_atom = 0, l = 0;
  double k = 0.0;     ///< kcal/mol
  int n = 1;          ///< multiplicity
  double phi0 = 0.0;  ///< radians
};

/// Morse bond U = D (1 - exp(-a (r - r0)))².
struct MorseBond {
  uint32_t i = 0, j = 0;
  double depth = 0.0;  ///< D, kcal/mol
  double a = 0.0;      ///< Å⁻¹
  double r0 = 0.0;     ///< Å
};

/// Urey–Bradley 1-3 term: harmonic in the i..k distance of an angle.
struct UreyBradley {
  uint32_t i = 0, k = 0;
  double kub = 0.0;  ///< kcal/mol/Å²
  double s0 = 0.0;   ///< Å
};

/// Harmonic improper dihedral U = k (phi - phi0)² (planarity restraint).
struct Improper {
  uint32_t i = 0, j = 0, k_atom = 0, l = 0;
  double k = 0.0;
  double phi0 = 0.0;
};

/// Gō-model native contact: a 12-10 attractive well at the native
/// separation, evaluated outside the generic pair loop (the pair itself is
/// excluded there so the bead-bead repulsion is not double counted).
struct GoContact {
  uint32_t i = 0, j = 0;
  double epsilon = 0.0;   ///< well depth (kcal/mol)
  double r_native = 0.0;  ///< native separation (Å)
};

/// Holonomic distance constraint |r_i - r_j| = r0 (SHAKE/M-SHAKE).
struct DistanceConstraint {
  uint32_t i = 0, j = 0;
  double r0 = 0.0;
};

/// Virtual interaction site whose position is constructed from parents each
/// step and whose force is redistributed back onto the parents.
struct VirtualSite {
  enum class Kind {
    kLinear2,   ///< r = (1-a) r_p0 + a r_p1
    kPlanar3,   ///< TIP4P-style: r = r_p0 + a (r_p1 - r_p0) + b (r_p2 - r_p0)
  };
  uint32_t site = 0;
  uint32_t parents[3] = {0, 0, 0};  ///< kLinear2 uses the first two
  Kind kind = Kind::kLinear2;
  double a = 0.0;
  double b = 0.0;
};

/// A contiguous range of atoms forming one molecule.
struct Molecule {
  uint32_t first = 0;
  uint32_t count = 0;
  std::string name;
};

/// Scaled 1-4 nonbonded pair (excluded from the normal pair loop, evaluated
/// separately with scale factors).
struct Pair14 {
  uint32_t i = 0, j = 0;
  double lj_scale = 0.5;
  double coulomb_scale = 0.8333333333;
};

/// Per-atom-type Lennard-Jones parameters; pair parameters are produced
/// with Lorentz–Berthelot combination rules unless overridden.
struct LjType {
  std::string name;
  double sigma = 0.0;    ///< Å
  double epsilon = 0.0;  ///< kcal/mol
};

class Topology {
 public:
  // --- construction -------------------------------------------------------
  /// Registers an atom type; returns its id.
  uint32_t add_type(const std::string& name, double sigma, double epsilon);
  /// Adds an atom; returns its index.
  uint32_t add_atom(uint32_t type, double mass, double charge);

  void add_bond(uint32_t i, uint32_t j, double k, double r0);
  void add_angle(uint32_t i, uint32_t j, uint32_t k_atom, double k,
                 double theta0);
  void add_dihedral(uint32_t i, uint32_t j, uint32_t k_atom, uint32_t l,
                    double k, int n, double phi0);
  void add_morse_bond(uint32_t i, uint32_t j, double depth, double a,
                      double r0);
  void add_urey_bradley(uint32_t i, uint32_t k, double kub, double s0);
  void add_improper(uint32_t i, uint32_t j, uint32_t k_atom, uint32_t l,
                    double k, double phi0);
  /// Adds a native contact and excludes the pair from the generic loop.
  void add_go_contact(uint32_t i, uint32_t j, double epsilon,
                      double r_native);
  void add_constraint(uint32_t i, uint32_t j, double r0);
  void add_virtual_site(const VirtualSite& v);
  /// Marks [first, first+count) as one molecule.
  void add_molecule(uint32_t first, uint32_t count, std::string name);

  /// Derives exclusions from connectivity: excludes 1-2 and 1-3 neighbours,
  /// and registers 1-4 neighbours as scaled pairs (also excluded from the
  /// main loop).  Idempotent.
  void build_exclusions_from_bonds(double lj14_scale = 0.5,
                                   double coulomb14_scale = 0.8333333333);

  /// Validates invariants (indices in range, masses positive, constrained
  /// atoms not also virtual sites, ...). Throws ConfigError on violation.
  void validate() const;

  // --- access --------------------------------------------------------------
  [[nodiscard]] size_t atom_count() const { return masses_.size(); }
  [[nodiscard]] size_t type_count() const { return types_.size(); }

  [[nodiscard]] const std::vector<double>& masses() const { return masses_; }
  [[nodiscard]] const std::vector<double>& charges() const { return charges_; }
  [[nodiscard]] std::vector<double>& mutable_charges() { return charges_; }
  [[nodiscard]] const std::vector<uint32_t>& type_ids() const {
    return type_ids_;
  }
  [[nodiscard]] const std::vector<LjType>& types() const { return types_; }
  [[nodiscard]] const std::vector<Bond>& bonds() const { return bonds_; }
  [[nodiscard]] const std::vector<Angle>& angles() const { return angles_; }
  [[nodiscard]] const std::vector<Dihedral>& dihedrals() const {
    return dihedrals_;
  }
  [[nodiscard]] const std::vector<MorseBond>& morse_bonds() const {
    return morse_bonds_;
  }
  [[nodiscard]] const std::vector<UreyBradley>& urey_bradleys() const {
    return urey_bradleys_;
  }
  [[nodiscard]] const std::vector<Improper>& impropers() const {
    return impropers_;
  }
  [[nodiscard]] const std::vector<GoContact>& go_contacts() const {
    return go_contacts_;
  }
  [[nodiscard]] const std::vector<DistanceConstraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const std::vector<VirtualSite>& virtual_sites() const {
    return virtual_sites_;
  }
  [[nodiscard]] const std::vector<Pair14>& pairs14() const { return pairs14_; }
  [[nodiscard]] const std::vector<Molecule>& molecules() const {
    return molecules_;
  }

  /// True if the unordered pair (i, j) is excluded from the nonbonded loop.
  [[nodiscard]] bool is_excluded(uint32_t i, uint32_t j) const;
  /// All excluded pairs (i < j), for Ewald exclusion corrections.
  [[nodiscard]] std::vector<std::pair<uint32_t, uint32_t>> excluded_pairs()
      const;

  /// Total charge of the system (e).
  [[nodiscard]] double total_charge() const;
  /// Number of degrees of freedom: 3N - n_constraints - 3 (COM) and virtual
  /// sites contribute none.
  [[nodiscard]] size_t degrees_of_freedom() const;
  /// True if atom i is a virtual site (massless, position constructed).
  [[nodiscard]] bool is_virtual_site(uint32_t i) const;

  /// Visits the contiguous POD arrays a step reads — per-atom parameters,
  /// bonded term lists, constraints, virtual sites, 1-4 pairs — as
  /// fn(name, data, bytes) with mutable pointers, for SDC scrub
  /// registration.  The string-bearing containers (types_, molecules_) and
  /// the exclusion hash set are not visitable as raw bytes; the flattened
  /// exclusion list is covered via ForceField::visit_scrub_regions instead.
  template <typename Fn>
  void visit_scrub_regions(Fn&& fn) {
    auto emit = [&](const char* name, auto& v) {
      using T = typename std::remove_reference_t<decltype(v)>::value_type;
      fn(name, static_cast<void*>(v.data()), v.size() * sizeof(T));
    };
    emit("topo.type_ids", type_ids_);
    emit("topo.masses", masses_);
    emit("topo.charges", charges_);
    emit("topo.bonds", bonds_);
    emit("topo.angles", angles_);
    emit("topo.dihedrals", dihedrals_);
    emit("topo.morse_bonds", morse_bonds_);
    emit("topo.urey_bradleys", urey_bradleys_);
    emit("topo.impropers", impropers_);
    emit("topo.go_contacts", go_contacts_);
    emit("topo.constraints", constraints_);
    emit("topo.virtual_sites", virtual_sites_);
    emit("topo.pairs14", pairs14_);
  }

 private:
  static uint64_t pair_key(uint32_t i, uint32_t j) {
    if (i > j) std::swap(i, j);
    return (static_cast<uint64_t>(i) << 32) | j;
  }

  std::vector<LjType> types_;
  std::vector<uint32_t> type_ids_;
  std::vector<double> masses_;
  std::vector<double> charges_;
  std::vector<Bond> bonds_;
  std::vector<Angle> angles_;
  std::vector<Dihedral> dihedrals_;
  std::vector<MorseBond> morse_bonds_;
  std::vector<UreyBradley> urey_bradleys_;
  std::vector<Improper> impropers_;
  std::vector<GoContact> go_contacts_;
  std::vector<DistanceConstraint> constraints_;
  std::vector<VirtualSite> virtual_sites_;
  std::vector<Pair14> pairs14_;
  std::vector<Molecule> molecules_;
  std::unordered_set<uint64_t> exclusions_;
  bool exclusions_built_ = false;
};

}  // namespace antmd
