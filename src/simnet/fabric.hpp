// Fabric: owner of the simulated interconnect in one process — the NIC
// model ("simnet" backend; thread-less NICs advanced by the host's polls).
//
// A Fabric stands for "the interconnect between the cluster nodes". Create
// NICs, connect them pairwise (one link = one NIC pair), and hand each side
// to a communication library instance. Multirail = one node holding several
// connected channels towards the same peer. Multi-backend construction
// (shmem fast paths, socket channels, full meshes) lives one layer up in
// transport::Cluster — a Fabric is purely the NIC model.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simnet/link_model.hpp"
#include "simnet/nic.hpp"
#include "transport/channel.hpp"

namespace piom::simnet {

class Fabric final : public transport::ITransport {
 public:
  /// `time_scale` multiplies every modelled delay (1.0 = realistic ns;
  /// tests may use <1 for speed, >1 to magnify protocol effects).
  explicit Fabric(double time_scale = 1.0);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // ---- ITransport (the "simnet" backend's factory face) ----

  [[nodiscard]] transport::Backend backend() const override {
    return transport::Backend::kSimnet;
  }
  /// Create a connected NIC pair over `default_link()`.
  std::pair<transport::IChannel*, transport::IChannel*> create_channel_pair(
      const std::string& name) override;
  [[nodiscard]] std::size_t channel_count() const override {
    return nics_.size();
  }

  /// Link model used by create_channel_pair (the ITransport entry point,
  /// which has no per-call link parameter).
  void set_default_link(const LinkModel& link) { default_link_ = link; }
  [[nodiscard]] const LinkModel& default_link() const { return default_link_; }

  // ---- simnet-specific construction ----

  /// Create a NIC attached to this fabric.
  Nic& create_nic(const std::string& name, const LinkModel& link = {});

  /// Wire two NICs back-to-back (both directions). Each NIC may be
  /// connected exactly once.
  static void connect(Nic& a, Nic& b);

  /// Convenience: create a connected pair over one link model.
  std::pair<Nic*, Nic*> create_link(const std::string& name,
                                    const LinkModel& link = {});

  [[nodiscard]] double time_scale() const { return time_scale_; }
  [[nodiscard]] std::size_t nic_count() const { return nics_.size(); }

 private:
  double time_scale_;
  LinkModel default_link_{};
  std::vector<std::unique_ptr<Nic>> nics_;
};

}  // namespace piom::simnet
