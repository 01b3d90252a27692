#include "index/positional_index.h"

#include <algorithm>
#include <cassert>

namespace dataspread {

namespace {
constexpr size_t kLeafCap = 64;    // max payloads per leaf
constexpr size_t kFanout = 32;     // max children per internal node
constexpr size_t kLeafMin = kLeafCap / 4;
constexpr size_t kFanoutMin = kFanout / 4;
}  // namespace

struct PositionalIndex::Node {
  bool leaf = true;
  size_t count = 0;  // elements in this subtree
  std::vector<uint64_t> values;               // leaf payloads
  std::vector<std::unique_ptr<Node>> children;  // internal children

  static std::unique_ptr<Node> Leaf() {
    auto n = std::make_unique<Node>();
    n->leaf = true;
    return n;
  }
  static std::unique_ptr<Node> Internal() {
    auto n = std::make_unique<Node>();
    n->leaf = false;
    return n;
  }
};

struct PositionalIndex::InsertOutcome {
  std::unique_ptr<Node> split;  // right sibling if the node overflowed
};

PositionalIndex::PositionalIndex() : root_(Node::Leaf()) {}
PositionalIndex::~PositionalIndex() = default;
PositionalIndex::PositionalIndex(PositionalIndex&&) noexcept = default;
PositionalIndex& PositionalIndex::operator=(PositionalIndex&&) noexcept = default;

Result<uint64_t> PositionalIndex::Get(size_t pos) const {
  if (pos >= size_) {
    return Status::OutOfRange("position " + std::to_string(pos) + " >= " +
                              std::to_string(size_));
  }
  const Node* node = root_.get();
  while (!node->leaf) {
    for (const auto& child : node->children) {
      if (pos < child->count) {
        node = child.get();
        break;
      }
      pos -= child->count;
    }
  }
  return node->values[pos];
}

Status PositionalIndex::Set(size_t pos, uint64_t payload) {
  if (pos >= size_) {
    return Status::OutOfRange("position " + std::to_string(pos) + " >= " +
                              std::to_string(size_));
  }
  Node* node = root_.get();
  while (!node->leaf) {
    for (const auto& child : node->children) {
      if (pos < child->count) {
        node = child.get();
        break;
      }
      pos -= child->count;
    }
  }
  node->values[pos] = payload;
  return Status::OK();
}

PositionalIndex::InsertOutcome PositionalIndex::InsertRec(Node* node, size_t pos,
                                                          uint64_t payload) {
  node->count += 1;
  if (node->leaf) {
    node->values.insert(node->values.begin() + static_cast<ptrdiff_t>(pos), payload);
    if (node->values.size() <= kLeafCap) return {};
    auto right = Node::Leaf();
    size_t half = node->values.size() / 2;
    right->values.assign(node->values.begin() + static_cast<ptrdiff_t>(half),
                         node->values.end());
    node->values.resize(half);
    right->count = right->values.size();
    node->count = node->values.size();
    return {std::move(right)};
  }
  // Internal: find the child to descend into. Position may equal the running
  // total, in which case we insert at the end of the last child that can take
  // it (prefer the earlier child so appends go to the rightmost).
  size_t i = 0;
  for (; i + 1 < node->children.size(); ++i) {
    if (pos <= node->children[i]->count) break;
    pos -= node->children[i]->count;
  }
  InsertOutcome out = InsertRec(node->children[i].get(), pos, payload);
  if (out.split) {
    node->children.insert(node->children.begin() + static_cast<ptrdiff_t>(i) + 1,
                          std::move(out.split));
    if (node->children.size() > kFanout) {
      auto right = Node::Internal();
      size_t half = node->children.size() / 2;
      for (size_t j = half; j < node->children.size(); ++j) {
        right->count += node->children[j]->count;
        right->children.push_back(std::move(node->children[j]));
      }
      node->children.resize(half);
      node->count -= right->count;
      return {std::move(right)};
    }
  }
  return {};
}

Status PositionalIndex::InsertAt(size_t pos, uint64_t payload) {
  if (pos > size_) {
    return Status::OutOfRange("insert position " + std::to_string(pos) + " > " +
                              std::to_string(size_));
  }
  InsertOutcome out = InsertRec(root_.get(), pos, payload);
  if (out.split) {
    auto new_root = Node::Internal();
    new_root->count = root_->count + out.split->count;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(out.split));
    root_ = std::move(new_root);
  }
  size_ += 1;
  return Status::OK();
}

void PositionalIndex::PushBack(uint64_t payload) {
  Status s = InsertAt(size_, payload);
  (void)s;  // Appending at size_ cannot fail.
}

uint64_t PositionalIndex::EraseRec(Node* node, size_t pos) {
  node->count -= 1;
  if (node->leaf) {
    uint64_t v = node->values[pos];
    node->values.erase(node->values.begin() + static_cast<ptrdiff_t>(pos));
    return v;
  }
  size_t i = 0;
  for (; i + 1 < node->children.size(); ++i) {
    if (pos < node->children[i]->count) break;
    pos -= node->children[i]->count;
  }
  Node* child = node->children[i].get();
  uint64_t v = EraseRec(child, pos);

  // Light rebalancing: merge an underfull child into a neighbour when the
  // combined size fits, otherwise leave it (splits guarantee halves, so the
  // tree height stays O(log of max size ever)).
  size_t min_size = child->leaf ? kLeafMin : kFanoutMin;
  size_t child_size = child->leaf ? child->values.size() : child->children.size();
  if (child_size < min_size && node->children.size() > 1) {
    size_t j = (i + 1 < node->children.size()) ? i + 1 : i - 1;
    size_t left = std::min(i, j);
    size_t right = std::max(i, j);
    Node* l = node->children[left].get();
    Node* r = node->children[right].get();
    if (l->leaf == r->leaf) {
      size_t cap = l->leaf ? kLeafCap : kFanout;
      size_t l_size = l->leaf ? l->values.size() : l->children.size();
      size_t r_size = r->leaf ? r->values.size() : r->children.size();
      if (l_size + r_size <= cap) {
        if (l->leaf) {
          l->values.insert(l->values.end(), r->values.begin(), r->values.end());
        } else {
          for (auto& c : r->children) l->children.push_back(std::move(c));
        }
        l->count += r->count;
        node->children.erase(node->children.begin() + static_cast<ptrdiff_t>(right));
      }
    }
  }
  return v;
}

void PositionalIndex::MaybeShrinkRoot() {
  while (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children[0]);
  }
}

Result<uint64_t> PositionalIndex::EraseAt(size_t pos) {
  if (pos >= size_) {
    return Status::OutOfRange("position " + std::to_string(pos) + " >= " +
                              std::to_string(size_));
  }
  uint64_t v = EraseRec(root_.get(), pos);
  size_ -= 1;
  MaybeShrinkRoot();
  return v;
}

void PositionalIndex::Visit(size_t begin, size_t count,
                            const std::function<void(size_t, uint64_t)>& fn) const {
  VisitSpans(begin, count,
             [&fn](size_t first, const uint64_t* payloads, size_t n) {
               for (size_t k = 0; k < n; ++k) fn(first + k, payloads[k]);
             });
}

void PositionalIndex::VisitSpans(
    size_t begin, size_t count,
    const std::function<void(size_t, const uint64_t*, size_t)>& fn) const {
  if (begin >= size_ || count == 0) return;
  size_t end = std::min(size_, begin + count);
  auto walk = [&](auto&& self, const Node* node, size_t base) -> void {
    if (node->leaf) {
      size_t lo = begin > base ? begin - base : 0;
      size_t hi = std::min(node->values.size(), end - base);
      if (lo < hi) fn(base + lo, node->values.data() + lo, hi - lo);
      return;
    }
    size_t child_base = base;
    for (const auto& child : node->children) {
      if (child_base >= end) break;
      if (child_base + child->count > begin) {
        self(self, child.get(), child_base);
      }
      child_base += child->count;
    }
  };
  walk(walk, root_.get(), 0);
}

std::vector<uint64_t> PositionalIndex::GetRange(size_t begin, size_t count) const {
  std::vector<uint64_t> out;
  out.reserve(std::min(count, size_ > begin ? size_ - begin : 0));
  Visit(begin, count, [&out](size_t, uint64_t v) { out.push_back(v); });
  return out;
}

void PositionalIndex::Build(const std::vector<uint64_t>& payloads) {
  Clear();
  if (payloads.empty()) return;
  // Bottom-up bulk load: fill leaves to 3/4 capacity, then stack internals.
  const size_t per_leaf = kLeafCap * 3 / 4;
  std::vector<std::unique_ptr<Node>> level;
  for (size_t i = 0; i < payloads.size(); i += per_leaf) {
    auto leaf = Node::Leaf();
    size_t n = std::min(per_leaf, payloads.size() - i);
    leaf->values.assign(payloads.begin() + static_cast<ptrdiff_t>(i),
                        payloads.begin() + static_cast<ptrdiff_t>(i + n));
    leaf->count = n;
    level.push_back(std::move(leaf));
  }
  const size_t per_node = kFanout * 3 / 4;
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> next;
    for (size_t i = 0; i < level.size(); i += per_node) {
      auto internal = Node::Internal();
      size_t n = std::min(per_node, level.size() - i);
      for (size_t j = 0; j < n; ++j) {
        internal->count += level[i + j]->count;
        internal->children.push_back(std::move(level[i + j]));
      }
      next.push_back(std::move(internal));
    }
    level = std::move(next);
  }
  root_ = std::move(level[0]);
  size_ = payloads.size();
}

void PositionalIndex::Clear() {
  root_ = Node::Leaf();
  size_ = 0;
}

size_t PositionalIndex::height() const {
  size_t h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    h += 1;
    node = node->children[0].get();
  }
  return h;
}

}  // namespace dataspread
