#include "src/text/token_interner.h"

#include <algorithm>

namespace emx {

uint32_t TokenInterner::Intern(std::string_view token) {
  auto it = ids_.find(token);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(token);
  ids_.emplace(strings_.back(), id);
  if ((id & kBlockMask) == 0) {
    if (blocks_.size() == directory_capacity_) {
      directory_capacity_ = std::max<size_t>(8, 2 * directory_capacity_);
      auto grown = std::make_unique<const std::string**[]>(directory_capacity_);
      for (size_t b = 0; b < blocks_.size(); ++b) grown[b] = blocks_[b].get();
      directories_.push_back(std::move(grown));
      directory_.store(directories_.back().get(), std::memory_order_release);
    }
    blocks_.push_back(std::make_unique<Block>(size_t{1} << kBlockBits));
    directories_.back()[blocks_.size() - 1] = blocks_.back().get();
  }
  blocks_.back()[id & kBlockMask] = &strings_.back();
  return id;
}

std::optional<uint32_t> TokenInterner::Find(std::string_view token) const {
  auto it = ids_.find(token);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

}  // namespace emx
