#include "topo/topology.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/error.hpp"

namespace antmd {

uint32_t Topology::add_type(const std::string& name, double sigma,
                            double epsilon) {
  ANTMD_REQUIRE(sigma >= 0.0 && epsilon >= 0.0,
                "LJ parameters must be non-negative");
  types_.push_back(LjType{name, sigma, epsilon});
  return static_cast<uint32_t>(types_.size() - 1);
}

uint32_t Topology::add_atom(uint32_t type, double mass, double charge) {
  ANTMD_REQUIRE(type < types_.size(), "unknown atom type");
  ANTMD_REQUIRE(mass >= 0.0, "mass must be non-negative");
  type_ids_.push_back(type);
  masses_.push_back(mass);
  charges_.push_back(charge);
  return static_cast<uint32_t>(masses_.size() - 1);
}

void Topology::add_bond(uint32_t i, uint32_t j, double k, double r0) {
  ANTMD_REQUIRE(i != j, "bond endpoints must differ");
  bonds_.push_back(Bond{i, j, k, r0});
}

void Topology::add_angle(uint32_t i, uint32_t j, uint32_t k_atom, double k,
                         double theta0) {
  ANTMD_REQUIRE(i != j && j != k_atom && i != k_atom,
                "angle atoms must be distinct");
  angles_.push_back(Angle{i, j, k_atom, k, theta0});
}

void Topology::add_dihedral(uint32_t i, uint32_t j, uint32_t k_atom,
                            uint32_t l, double k, int n, double phi0) {
  ANTMD_REQUIRE(n >= 1, "dihedral multiplicity must be >= 1");
  dihedrals_.push_back(Dihedral{i, j, k_atom, l, k, n, phi0});
}

void Topology::add_morse_bond(uint32_t i, uint32_t j, double depth,
                              double a, double r0) {
  ANTMD_REQUIRE(i != j, "bond endpoints must differ");
  ANTMD_REQUIRE(depth > 0 && a > 0 && r0 > 0, "bad Morse parameters");
  morse_bonds_.push_back(MorseBond{i, j, depth, a, r0});
}

void Topology::add_urey_bradley(uint32_t i, uint32_t k, double kub,
                                double s0) {
  ANTMD_REQUIRE(i != k, "Urey-Bradley endpoints must differ");
  urey_bradleys_.push_back(UreyBradley{i, k, kub, s0});
}

void Topology::add_improper(uint32_t i, uint32_t j, uint32_t k_atom,
                            uint32_t l, double k, double phi0) {
  impropers_.push_back(Improper{i, j, k_atom, l, k, phi0});
}

void Topology::add_go_contact(uint32_t i, uint32_t j, double epsilon,
                              double r_native) {
  ANTMD_REQUIRE(i != j, "contact endpoints must differ");
  ANTMD_REQUIRE(epsilon > 0 && r_native > 0, "bad Go-contact parameters");
  go_contacts_.push_back(GoContact{i, j, epsilon, r_native});
  exclusions_.insert(pair_key(i, j));
}

void Topology::add_constraint(uint32_t i, uint32_t j, double r0) {
  ANTMD_REQUIRE(i != j, "constraint endpoints must differ");
  ANTMD_REQUIRE(r0 > 0.0, "constraint length must be positive");
  constraints_.push_back(DistanceConstraint{i, j, r0});
}

void Topology::add_virtual_site(const VirtualSite& v) {
  virtual_sites_.push_back(v);
}

void Topology::add_molecule(uint32_t first, uint32_t count, std::string name) {
  molecules_.push_back(Molecule{first, count, std::move(name)});
}

void Topology::build_exclusions_from_bonds(double lj14_scale,
                                           double coulomb14_scale) {
  if (exclusions_built_) return;
  exclusions_built_ = true;

  std::map<uint32_t, std::set<uint32_t>> adj;
  auto connect = [&](uint32_t a, uint32_t b) {
    adj[a].insert(b);
    adj[b].insert(a);
  };
  for (const auto& b : bonds_) connect(b.i, b.j);
  for (const auto& b : morse_bonds_) connect(b.i, b.j);
  // Constraints are chemical bonds too (rigid water has no Bond entries).
  for (const auto& c : constraints_) connect(c.i, c.j);
  // Virtual sites inherit the exclusions of their first parent by being
  // "bonded" to all parents.
  for (const auto& v : virtual_sites_) {
    connect(v.site, v.parents[0]);
    if (v.kind == VirtualSite::Kind::kPlanar3) {
      connect(v.site, v.parents[1]);
      connect(v.site, v.parents[2]);
    } else {
      connect(v.site, v.parents[1]);
    }
  }

  std::set<uint64_t> seen14;
  for (const auto& [a, nbrs1] : adj) {
    for (uint32_t b : nbrs1) {
      exclusions_.insert(pair_key(a, b));  // 1-2
      for (uint32_t c : adj[b]) {
        if (c == a) continue;
        exclusions_.insert(pair_key(a, c));  // 1-3
        for (uint32_t d : adj[c]) {
          if (d == a || d == b) continue;
          uint64_t key = pair_key(a, d);
          if (exclusions_.count(key)) continue;
          if (seen14.insert(key).second) {
            pairs14_.push_back(
                Pair14{std::min(a, d), std::max(a, d), lj14_scale,
                       coulomb14_scale});
          }
        }
      }
    }
  }
  // 1-4 pairs are excluded from the main loop (they are evaluated scaled).
  for (const auto& p : pairs14_) exclusions_.insert(pair_key(p.i, p.j));
}

void Topology::validate() const {
  const auto n = static_cast<uint32_t>(atom_count());
  auto check_index = [&](uint32_t idx, const char* what) {
    ANTMD_REQUIRE(idx < n, std::string("atom index out of range in ") + what);
  };
  for (const auto& b : bonds_) {
    check_index(b.i, "bond");
    check_index(b.j, "bond");
    ANTMD_REQUIRE(b.k >= 0 && b.r0 > 0, "bad bond parameters");
  }
  for (const auto& a : angles_) {
    check_index(a.i, "angle");
    check_index(a.j, "angle");
    check_index(a.k_atom, "angle");
    ANTMD_REQUIRE(a.theta0 > 0 && a.theta0 <= M_PI, "bad angle theta0");
  }
  for (const auto& d : dihedrals_) {
    check_index(d.i, "dihedral");
    check_index(d.j, "dihedral");
    check_index(d.k_atom, "dihedral");
    check_index(d.l, "dihedral");
  }
  for (const auto& b : morse_bonds_) {
    check_index(b.i, "morse bond");
    check_index(b.j, "morse bond");
  }
  for (const auto& u : urey_bradleys_) {
    check_index(u.i, "urey-bradley");
    check_index(u.k, "urey-bradley");
  }
  for (const auto& d : impropers_) {
    check_index(d.i, "improper");
    check_index(d.j, "improper");
    check_index(d.k_atom, "improper");
    check_index(d.l, "improper");
  }
  for (const auto& g : go_contacts_) {
    check_index(g.i, "go contact");
    check_index(g.j, "go contact");
  }
  for (const auto& c : constraints_) {
    check_index(c.i, "constraint");
    check_index(c.j, "constraint");
    ANTMD_REQUIRE(masses_[c.i] > 0 && masses_[c.j] > 0,
                  "constrained atoms must have mass");
  }
  for (const auto& v : virtual_sites_) {
    check_index(v.site, "virtual site");
    check_index(v.parents[0], "virtual site parent");
    check_index(v.parents[1], "virtual site parent");
    if (v.kind == VirtualSite::Kind::kPlanar3) {
      check_index(v.parents[2], "virtual site parent");
    }
    ANTMD_REQUIRE(masses_[v.site] == 0.0, "virtual sites must be massless");
    for (const auto& c : constraints_) {
      ANTMD_REQUIRE(c.i != v.site && c.j != v.site,
                    "virtual sites cannot be constrained");
    }
  }
  for (const auto& m : molecules_) {
    ANTMD_REQUIRE(m.first + m.count <= n, "molecule range out of bounds");
  }
  for (size_t i = 0; i < masses_.size(); ++i) {
    if (masses_[i] == 0.0) {
      bool is_site = is_virtual_site(static_cast<uint32_t>(i));
      ANTMD_REQUIRE(is_site, "massless atom that is not a virtual site");
    }
  }
}

bool Topology::is_excluded(uint32_t i, uint32_t j) const {
  return exclusions_.count(pair_key(i, j)) > 0;
}

std::vector<std::pair<uint32_t, uint32_t>> Topology::excluded_pairs() const {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(exclusions_.size());
  for (uint64_t key : exclusions_) {
    out.emplace_back(static_cast<uint32_t>(key >> 32),
                     static_cast<uint32_t>(key & 0xFFFFFFFFu));
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Topology::total_charge() const {
  double q = 0.0;
  for (double c : charges_) q += c;
  return q;
}

size_t Topology::degrees_of_freedom() const {
  size_t massless = 0;
  for (double m : masses_) {
    if (m == 0.0) ++massless;
  }
  size_t dof = 3 * (atom_count() - massless);
  dof -= constraints_.size();
  dof -= 3;  // centre-of-mass momentum is removed
  return dof;
}

bool Topology::is_virtual_site(uint32_t i) const {
  return std::any_of(virtual_sites_.begin(), virtual_sites_.end(),
                     [i](const VirtualSite& v) { return v.site == i; });
}

}  // namespace antmd
