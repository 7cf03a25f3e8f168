#include "tam/power.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace soctest {

UnionFind::UnionFind(std::size_t n) : parent_(n), rank_(n, 0) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t UnionFind::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (rank_[a] < rank_[b]) std::swap(a, b);
  parent_[b] = a;
  if (rank_[a] == rank_[b]) ++rank_[a];
  return true;
}

std::vector<std::vector<std::size_t>> UnionFind::groups(std::size_t min_size) {
  std::map<std::size_t, std::vector<std::size_t>> by_root;
  for (std::size_t i = 0; i < parent_.size(); ++i) by_root[find(i)].push_back(i);
  std::vector<std::vector<std::size_t>> out;
  for (auto& [root, members] : by_root) {
    (void)root;
    if (members.size() >= min_size) out.push_back(std::move(members));
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> power_conflict_pairs(
    const Soc& soc, double p_max_mw) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  if (p_max_mw < 0) return pairs;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (std::size_t k = i + 1; k < soc.num_cores(); ++k) {
      if (soc.core(i).test_power_mw + soc.core(k).test_power_mw > p_max_mw) {
        pairs.emplace_back(i, k);
      }
    }
  }
  return pairs;
}

std::vector<std::vector<std::size_t>> power_co_groups(const Soc& soc,
                                                      double p_max_mw) {
  if (p_max_mw < 0) return {};  // no budget, no conflicts: skip the grouping
  UnionFind uf(soc.num_cores());
  for (const auto& [i, k] : power_conflict_pairs(soc, p_max_mw)) uf.unite(i, k);
  return uf.groups(2);
}

std::vector<std::size_t> overbudget_cores(const Soc& soc, double p_max_mw) {
  std::vector<std::size_t> out;
  if (p_max_mw < 0) return out;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    if (soc.core(i).test_power_mw > p_max_mw) out.push_back(i);
  }
  return out;
}

}  // namespace soctest
