#include "simnet/fabric.hpp"

#include <stdexcept>

namespace piom::simnet {

Fabric::Fabric(double time_scale) : time_scale_(time_scale) {
  if (time_scale <= 0) {
    throw std::invalid_argument("Fabric: time_scale must be positive");
  }
}

std::pair<transport::IChannel*, transport::IChannel*>
Fabric::create_channel_pair(const std::string& name) {
  return create_link(name, default_link_);
}

Nic& Fabric::create_nic(const std::string& name, const LinkModel& link) {
  nics_.push_back(std::unique_ptr<Nic>(new Nic(*this, name, link)));
  return *nics_.back();
}

void Fabric::connect(Nic& a, Nic& b) {
  if (&a == &b) throw std::invalid_argument("Fabric::connect: self-link");
  if (a.peer_ != nullptr || b.peer_ != nullptr) {
    throw std::logic_error("Fabric::connect: NIC already connected");
  }
  a.peer_ = &b;
  b.peer_ = &a;
}

std::pair<Nic*, Nic*> Fabric::create_link(const std::string& name,
                                          const LinkModel& link) {
  Nic& a = create_nic(name + ".a", link);
  Nic& b = create_nic(name + ".b", link);
  connect(a, b);
  return {&a, &b};
}

}  // namespace piom::simnet
