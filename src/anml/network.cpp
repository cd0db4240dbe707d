#include "anml/network.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace apss::anml {

ElementId AutomataNetwork::add_ste(SymbolSet symbols, StartKind start,
                                   std::string name) {
  Element e;
  e.kind = ElementKind::kSte;
  e.symbols = symbols;
  e.start = start;
  e.name = std::move(name);
  elements_.push_back(std::move(e));
  return static_cast<ElementId>(elements_.size() - 1);
}

ElementId AutomataNetwork::add_reporting_ste(SymbolSet symbols,
                                             std::uint32_t report_code,
                                             std::string name) {
  const ElementId id = add_ste(symbols, StartKind::kNone, std::move(name));
  set_reporting(id, report_code);
  return id;
}

ElementId AutomataNetwork::add_counter(std::uint32_t threshold,
                                       CounterMode mode, std::string name) {
  Element e;
  e.kind = ElementKind::kCounter;
  e.threshold = threshold;
  e.mode = mode;
  e.name = std::move(name);
  elements_.push_back(std::move(e));
  return static_cast<ElementId>(elements_.size() - 1);
}

ElementId AutomataNetwork::add_boolean(BooleanOp op, std::string name) {
  Element e;
  e.kind = ElementKind::kBoolean;
  e.op = op;
  e.name = std::move(name);
  elements_.push_back(std::move(e));
  return static_cast<ElementId>(elements_.size() - 1);
}

void AutomataNetwork::connect(ElementId from, ElementId to, CounterPort port) {
  if (from >= elements_.size() || to >= elements_.size()) {
    throw std::out_of_range("AutomataNetwork::connect: bad element id");
  }
  edges_.push_back({from, to, port});
}

void AutomataNetwork::set_reporting(ElementId id, std::uint32_t report_code) {
  Element& e = elements_.at(id);
  e.reporting = true;
  e.report_code = report_code;
}

ElementId AutomataNetwork::merge(const AutomataNetwork& other) {
  const auto offset = static_cast<ElementId>(elements_.size());
  elements_.insert(elements_.end(), other.elements_.begin(),
                   other.elements_.end());
  edges_.reserve(edges_.size() + other.edges_.size());
  for (const Edge& e : other.edges_) {
    edges_.push_back({e.from + offset, e.to + offset, e.port});
  }
  return offset;
}

std::size_t AutomataNetwork::fan_in(ElementId id) const {
  return static_cast<std::size_t>(
      std::count_if(edges_.begin(), edges_.end(),
                    [id](const Edge& e) { return e.to == id; }));
}

std::size_t AutomataNetwork::fan_out(ElementId id) const {
  return static_cast<std::size_t>(
      std::count_if(edges_.begin(), edges_.end(),
                    [id](const Edge& e) { return e.from == id; }));
}

NetworkStats AutomataNetwork::stats() const {
  NetworkStats s;
  s.edge_count = edges_.size();
  for (const Element& e : elements_) {
    switch (e.kind) {
      case ElementKind::kSte:
        ++s.ste_count;
        break;
      case ElementKind::kCounter:
        ++s.counter_count;
        break;
      case ElementKind::kBoolean:
        ++s.boolean_count;
        break;
    }
    if (e.reporting) {
      ++s.reporting_count;
    }
    if (e.kind == ElementKind::kSte && e.start != StartKind::kNone) {
      ++s.start_count;
    }
  }
  std::vector<std::size_t> fin(elements_.size(), 0), fout(elements_.size(), 0);
  for (const Edge& e : edges_) {
    ++fout[e.from];
    ++fin[e.to];
  }
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    s.max_fan_in = std::max(s.max_fan_in, fin[i]);
    s.max_fan_out = std::max(s.max_fan_out, fout[i]);
  }
  return s;
}

std::size_t AutomataNetwork::components(
    std::vector<std::uint32_t>& labels) const {
  // Union-find over undirected connectivity.
  std::vector<std::uint32_t> parent(elements_.size());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : edges_) {
    const std::uint32_t a = find(e.from);
    const std::uint32_t b = find(e.to);
    if (a != b) {
      parent[a] = b;
    }
  }
  labels.assign(elements_.size(), 0);
  std::vector<std::uint32_t> remap(elements_.size(), kInvalidElement);
  std::uint32_t next = 0;
  for (std::uint32_t i = 0; i < elements_.size(); ++i) {
    const std::uint32_t root = find(i);
    if (remap[root] == kInvalidElement) {
      remap[root] = next++;
    }
    labels[i] = remap[root];
  }
  return next;
}

std::vector<std::string> AutomataNetwork::validate(
    bool allow_dynamic_threshold) const {
  std::vector<std::string> problems;
  const auto complain = [&problems](std::string msg) {
    problems.push_back(std::move(msg));
  };

  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const Element& e = elements_[i];
    const std::string tag = "element " + std::to_string(i) +
                            (e.name.empty() ? "" : " (" + e.name + ")");
    switch (e.kind) {
      case ElementKind::kSte:
        if (e.symbols.empty()) {
          complain(tag + ": STE has empty symbol class");
        }
        break;
      case ElementKind::kCounter:
        if (e.threshold == 0) {
          complain(tag + ": counter threshold must be >= 1");
        }
        if (e.start != StartKind::kNone) {
          complain(tag + ": counters cannot be start elements");
        }
        break;
      case ElementKind::kBoolean: {
        const std::size_t inputs = fan_in(static_cast<ElementId>(i));
        if (inputs == 0) {
          complain(tag + ": boolean gate has no inputs");
        }
        if (e.op == BooleanOp::kNot && inputs != 1) {
          complain(tag + ": NOT gate must have exactly one input");
        }
        if (e.start != StartKind::kNone) {
          complain(tag + ": booleans cannot be start elements");
        }
        break;
      }
    }
  }

  for (const Edge& e : edges_) {
    if (e.from >= elements_.size() || e.to >= elements_.size()) {
      complain("edge references out-of-range element");
      continue;
    }
    const Element& dst = elements_[e.to];
    if (dst.kind != ElementKind::kCounter &&
        e.port != CounterPort::kCountEnable) {
      complain("edge to non-counter element uses a counter port");
    }
    if (e.port == CounterPort::kThreshold) {
      if (!allow_dynamic_threshold) {
        complain(
            "kThreshold edge present but dynamic thresholds are an "
            "architectural extension (enable allow_dynamic_threshold)");
      } else if (elements_[e.from].kind != ElementKind::kCounter) {
        complain("dynamic threshold source must be a counter");
      }
    }
  }

  // Combinational cycles through booleans are unrealizable: boolean outputs
  // are computed within a cycle, so a boolean may not (transitively) feed
  // itself without passing through a clocked element (STE or counter).
  {
    const std::size_t n = elements_.size();
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::vector<std::uint8_t> state(n, 0);
    std::vector<std::vector<ElementId>> bool_adj(n);
    for (const Edge& e : edges_) {
      if (elements_[e.from].kind == ElementKind::kBoolean &&
          elements_[e.to].kind == ElementKind::kBoolean) {
        bool_adj[e.from].push_back(e.to);
      }
    }
    bool cycle = false;
    const std::function<void(ElementId)> dfs = [&](ElementId u) {
      state[u] = 1;
      for (const ElementId v : bool_adj[u]) {
        if (state[v] == 1) {
          cycle = true;
        } else if (state[v] == 0) {
          dfs(v);
        }
        if (cycle) {
          return;
        }
      }
      state[u] = 2;
    };
    for (std::uint32_t i = 0; i < n && !cycle; ++i) {
      if (elements_[i].kind == ElementKind::kBoolean && state[i] == 0) {
        dfs(static_cast<ElementId>(i));
      }
    }
    if (cycle) {
      complain("combinational cycle through boolean elements");
    }
  }

  return problems;
}

}  // namespace apss::anml
