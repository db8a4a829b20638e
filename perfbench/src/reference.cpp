#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

struct Ref {
  std::string name;
  std::vector<std::string> idx;
};

std::string strip(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c != ' ' && c != '\t') o += c;
  }
  return o;
}

/// "Name(a,b,c)" starting at pos; advances pos past ')'.
Ref parse_ref(const std::string& s, std::size_t* pos) {
  Ref r;
  const std::size_t open = s.find('(', *pos);
  const std::size_t close = s.find(')', *pos);
  if (open == std::string::npos || close == std::string::npos || close < open) {
    throw std::runtime_error("reference_eval: bad tensor reference in " + s);
  }
  r.name = s.substr(*pos, open - *pos);
  std::string cur;
  for (std::size_t i = open + 1; i <= close; ++i) {
    if (s[i] == ',' || s[i] == ')') {
      if (!cur.empty()) r.idx.push_back(cur);
      cur.clear();
    } else {
      cur += s[i];
    }
  }
  *pos = close + 1;
  return r;
}

}  // namespace

std::vector<double> reference_eval(
    const std::string& expr, const spttn::CooTensor& t,
    const std::vector<const spttn::DenseTensor*>& dense) {
  const std::string s = strip(expr);
  std::size_t pos = 0;
  const Ref out = parse_ref(s, &pos);
  if (pos >= s.size() || s[pos] != '=') {
    throw std::runtime_error("reference_eval: missing '=' in " + expr);
  }
  ++pos;
  std::vector<Ref> ins;
  while (pos < s.size()) {
    if (s[pos] == '*') ++pos;
    ins.push_back(parse_ref(s, &pos));
  }

  // Index ids and extents.
  std::map<std::string, int> id_of;
  std::vector<std::int64_t> extent;
  const auto id = [&](const std::string& n) {
    auto it = id_of.find(n);
    if (it != id_of.end()) return it->second;
    const int v = static_cast<int>(extent.size());
    id_of[n] = v;
    extent.push_back(-1);
    return v;
  };
  int sparse_pos = -1;
  std::size_t next_dense = 0;
  std::vector<const spttn::DenseTensor*> bound(ins.size(), nullptr);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const bool sparse = ins[i].name == "T";
    if (sparse) {
      sparse_pos = static_cast<int>(i);
    } else {
      if (next_dense >= dense.size()) {
        throw std::runtime_error("reference_eval: too few dense inputs");
      }
      bound[i] = dense[next_dense++];
    }
    for (std::size_t m = 0; m < ins[i].idx.size(); ++m) {
      const int v = id(ins[i].idx[m]);
      const std::int64_t e =
          sparse ? t.dims()[m] : bound[i]->dims()[m];
      extent[static_cast<std::size_t>(v)] = e;
    }
  }
  if (sparse_pos < 0) throw std::runtime_error("reference_eval: no T input");
  for (const auto& n : out.idx) id(n);
  const int nidx = static_cast<int>(extent.size());

  // Sparse index ids (in T's mode order) and dense-only index ids.
  const Ref& tref = ins[static_cast<std::size_t>(sparse_pos)];
  std::vector<int> t_ids;
  std::vector<char> in_t(static_cast<std::size_t>(nidx), 0);
  for (const auto& n : tref.idx) {
    t_ids.push_back(id_of[n]);
    in_t[static_cast<std::size_t>(id_of[n])] = 1;
  }
  std::vector<int> free_ids;
  for (int v = 0; v < nidx; ++v) {
    if (!in_t[static_cast<std::size_t>(v)]) free_ids.push_back(v);
  }

  // Row-major strides of every dense operand over index ids.
  struct Operand {
    const double* data = nullptr;
    std::vector<std::pair<int, std::int64_t>> id_stride;
  };
  const auto strides_of = [&](const Ref& r) {
    std::vector<std::pair<int, std::int64_t>> v(r.idx.size());
    std::int64_t stride = 1;
    for (std::size_t m = r.idx.size(); m-- > 0;) {
      const int i = id_of[r.idx[m]];
      v[m] = {i, stride};
      stride *= extent[static_cast<std::size_t>(i)];
    }
    return v;
  };
  std::vector<Operand> ops;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (static_cast<int>(i) == sparse_pos) continue;
    ops.push_back({bound[i]->data(), strides_of(ins[i])});
  }

  std::vector<int> out_ids;
  for (const auto& n : out.idx) out_ids.push_back(id_of[n]);
  const bool sparse_out = out_ids == t_ids;
  const auto out_strides = strides_of(out);
  std::int64_t out_size = 1;
  for (int v : out_ids) out_size *= extent[static_cast<std::size_t>(v)];
  std::vector<double> result(
      static_cast<std::size_t>(sparse_out ? t.nnz() : out_size), 0.0);

  // Offsets are kept per operand (the output last) and moved by each
  // dense-only index's stride as an odometer walks their combinations.
  const std::size_t nops = ops.size();
  const auto stride_in = [](const std::vector<std::pair<int, std::int64_t>>& s,
                            int id) {
    std::int64_t st = 0;
    for (const auto& [i, v] : s) st += i == id ? v : 0;
    return st;
  };
  std::vector<std::vector<std::int64_t>> fstride(free_ids.size());
  for (std::size_t f = 0; f < free_ids.size(); ++f) {
    for (const Operand& op : ops) {
      fstride[f].push_back(stride_in(op.id_stride, free_ids[f]));
    }
    fstride[f].push_back(sparse_out ? 0 : stride_in(out_strides, free_ids[f]));
  }
  std::vector<std::int64_t> off(nops + 1);
  std::vector<std::int64_t> digit(free_ids.size());
  std::int64_t combos = 1;
  for (int v : free_ids) combos *= extent[static_cast<std::size_t>(v)];
  const int order = t.order();
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    const auto c = t.coord(e);
    for (std::size_t o = 0; o <= nops; ++o) {
      const auto& s = o < nops ? ops[o].id_stride : out_strides;
      off[o] = 0;
      for (int m = 0; m < order; ++m) {
        off[o] += c[static_cast<std::size_t>(m)] *
                  stride_in(s, t_ids[static_cast<std::size_t>(m)]);
      }
    }
    if (sparse_out) off[nops] = e;
    std::fill(digit.begin(), digit.end(), 0);
    const double tv = t.value(e);
    for (std::int64_t k = 0; k < combos; ++k) {
      double p = tv;
      for (std::size_t o = 0; o < nops; ++o) p *= ops[o].data[off[o]];
      result[static_cast<std::size_t>(off[nops])] += p;
      // Odometer over the dense-only indices (last varies fastest).
      for (std::size_t f = free_ids.size(); f-- > 0;) {
        const std::int64_t ext = extent[static_cast<std::size_t>(free_ids[f])];
        if (++digit[f] < ext) {
          for (std::size_t o = 0; o <= nops; ++o) off[o] += fstride[f][o];
          break;
        }
        digit[f] = 0;
        for (std::size_t o = 0; o <= nops; ++o) {
          off[o] -= (ext - 1) * fstride[f][o];
        }
      }
    }
  }
  return result;
}

bool close_to(std::span<const double> got, std::span<const double> ref,
              double rtol, const std::string& what, std::string* why) {
  if (got.size() != ref.size()) {
    if (why) {
      *why = what + ": size " + std::to_string(got.size()) + " != " +
             std::to_string(ref.size());
    }
    return false;
  }
  double scale = 1e-300;
  for (double v : ref) scale = std::max(scale, std::fabs(v));
  double worst = 0;
  std::size_t at = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = std::fabs(got[i] - ref[i]);
    if (std::isnan(d)) {
      worst = d;
      at = i;
      break;
    }
    if (d > worst) {
      worst = d;
      at = i;
    }
  }
  if (!(worst <= rtol * scale)) {
    if (why) {
      std::ostringstream os;
      os << what << ": element " << at << " off by " << worst << " (max |ref| "
         << scale << ", rtol " << rtol << ")";
      *why = os.str();
    }
    return false;
  }
  return true;
}

}  // namespace perfbench
