// Private chat room: the paper's motivating "private chat rooms in social
// networks" scenario (§I).
//
// A moderator founds a room; members join over time and broadcast messages
// to everyone in their private view (gossip-style flooding with
// deduplication). External observers — including the NAT relays carrying
// the traffic — can see neither the content nor who is chatting with whom.
// The example also survives a member crash and a moderator (leader) crash
// followed by a leader election.
//
//   $ ./examples/private_chat
#include <cstdio>

#include <unordered_set>

#include "whisper/scale.hpp"

using namespace whisper;

namespace {

// A tiny chat application on top of the PPSS app channel: messages carry a
// unique id and are re-broadcast once to the local private view (flooding).
class ChatMember {
 public:
  ChatMember(ScaleTestbed& tb, WhisperNode* node, GroupId group, std::string name)
      : tb_(tb), node_(node), group_(group), name_(std::move(name)) {}

  void attach() {
    auto* g = node_->group(group_);
    g->on_app_message = [this](const wcl::RemotePeer& from, BytesView payload) {
      on_message(from, payload);
    };
  }

  void say(const std::string& text) {
    Writer w;
    w.u64(next_msg_id());
    w.str(name_);
    w.str(text);
    seen_.insert(last_id_);
    std::printf("[%6.1fs] %s says: \"%s\"\n",
                static_cast<double>(tb_.simulator(0).now()) / net::kSecond, name_.c_str(),
                text.c_str());
    broadcast(w.data());
  }

  std::size_t messages_heard() const { return heard_; }
  const std::string& name() const { return name_; }

 private:
  std::uint64_t next_msg_id() {
    last_id_ = (node_->id().value << 24) | ++counter_;
    return last_id_;
  }

  void broadcast(BytesView payload) {
    auto* g = node_->group(group_);
    for (const auto& entry : g->private_view().entries()) {
      g->send_app_to(entry.peer, payload);
    }
  }

  void on_message(const wcl::RemotePeer&, BytesView payload) {
    Reader r(payload);
    const std::uint64_t id = r.u64();
    const std::string who = r.str();
    const std::string text = r.str();
    if (!r.ok() || seen_.contains(id)) return;
    seen_.insert(id);
    ++heard_;
    std::printf("[%6.1fs]   %s hears %s: \"%s\"\n",
                static_cast<double>(tb_.simulator(0).now()) / net::kSecond, name_.c_str(),
                who.c_str(), text.c_str());
    broadcast(payload);  // flood once
  }

  ScaleTestbed& tb_;
  WhisperNode* node_;
  GroupId group_;
  std::string name_;
  std::uint64_t counter_ = 0;
  std::uint64_t last_id_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  std::size_t heard_ = 0;
};

}  // namespace

int main() {
  ScaleConfig cfg;
  cfg.initial_nodes = 50;
  cfg.natted_fraction = 0.7;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.node.ppss.leader_timeout = 3 * net::kMinute;
  cfg.seed = 99;
  ScaleTestbed tb(cfg);
  std::printf("booting 50-node network (70%% natted)...\n");
  tb.run_for(6 * net::kMinute);

  const GroupId room{1};
  auto nodes = tb.alive_nodes();
  const char* names[] = {"mallory-the-mod", "alice", "bob", "carol", "dave", "erin"};

  // The moderator founds the room, everyone else joins by invitation.
  crypto::Drbg drbg(1);
  ppss::Ppss& mod = nodes[0]->create_group(room, crypto::RsaKeyPair::generate(512, drbg));
  std::vector<ChatMember> members;
  members.reserve(6);
  members.emplace_back(tb, nodes[0], room, names[0]);
  for (int i = 1; i < 6; ++i) {
    nodes[i]->join_group(room, *mod.invite(nodes[i]->id()), mod.self_descriptor());
    members.emplace_back(tb, nodes[i], room, names[i]);
    tb.run_for(10 * net::kSecond);
  }
  tb.run_for(4 * net::kMinute);  // private views converge
  for (auto& m : members) m.attach();

  std::printf("\n--- chat begins ---\n");
  members[1].say("is this thing on?");
  tb.run_for(net::kMinute);
  members[2].say("loud and clear, and nobody outside can tell we're talking");
  tb.run_for(net::kMinute);

  std::printf("\n--- dave's machine crashes ---\n");
  tb.kill_node(tb.index_of(nodes[4]->id()));
  tb.run_for(2 * net::kMinute);
  members[3].say("dave dropped, carry on");
  tb.run_for(net::kMinute);

  std::printf("\n--- the moderator crashes; leader election kicks in ---\n");
  tb.kill_node(tb.index_of(nodes[0]->id()));
  tb.run_for(12 * net::kMinute);
  std::size_t leaders = 0;
  for (int i = 1; i < 6; ++i) {
    if (i == 4) continue;  // dave is gone
    if (nodes[i]->group(room)->is_leader()) {
      ++leaders;
      std::printf("new leader elected: %s (epoch %llu)\n", names[i],
                  static_cast<unsigned long long>(nodes[i]->group(room)->leader_epoch()));
    }
  }
  members[5].say("room survives its founder");
  tb.run_for(net::kMinute);

  std::printf("\n--- summary ---\n");
  for (auto& m : members) {
    std::printf("%-16s heard %zu message(s)\n", m.name().c_str(), m.messages_heard());
  }
  std::printf("leaders after election: %zu\n", leaders);
  return 0;
}
