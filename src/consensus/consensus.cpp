#include "consensus/consensus.hpp"

#include <stdexcept>

#include "consensus/committee.hpp"
#include "consensus/pbft.hpp"
#include "consensus/voting.hpp"

namespace abdhfl::consensus {

std::unique_ptr<ConsensusProtocol> make_consensus(const std::string& name) {
  if (name == "voting") return std::make_unique<VotingConsensus>();
  if (name == "committee") return std::make_unique<CommitteeConsensus>();
  if (name == "pbft") return std::make_unique<PbftConsensus>();
  throw std::invalid_argument("unknown consensus protocol: " + name);
}

const std::vector<std::string>& consensus_names() {
  static const std::vector<std::string> names = {"voting", "committee", "pbft"};
  return names;
}

}  // namespace abdhfl::consensus
