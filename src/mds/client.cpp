#include "condorg/mds/client.h"

#include "condorg/classad/parser.h"

namespace condorg::mds {

MdsClient::MdsClient(sim::Host& host, sim::Network& network,
                     const std::string& reply_service)
    : rpc_(host, network, reply_service) {}

void MdsClient::query(const sim::Address& giis, const std::string& constraint,
                      QueryCallback callback, double timeout) {
  sim::Payload payload;
  payload.set("constraint", constraint);
  if (!credential_.empty()) payload.set("credential", credential_);
  rpc_.call(giis, "grip.query", std::move(payload), timeout,
            [callback = std::move(callback)](sim::RpcOutcome outcome,
                                             const sim::Payload& reply) {
              if (outcome != sim::RpcOutcome::kAnswered) {
                callback(std::nullopt);
                return;
              }
              std::vector<ResourceRecord> records;
              const std::uint64_t count = reply.get_uint("count");
              records.reserve(count);
              for (std::uint64_t i = 0; i < count; ++i) {
                const std::string prefix = "result." + std::to_string(i);
                try {
                  records.push_back(ResourceRecord{
                      reply.get(prefix + ".name"),
                      classad::parse_ad(reply.get(prefix + ".ad"))});
                } catch (const classad::ParseError&) {
                  // Skip entries corrupted in transit; the directory
                  // validated them on registration.
                }
              }
              callback(std::move(records));
            });
}

void MdsClient::lookup(const sim::Address& giis, const std::string& name,
                       LookupCallback callback, double timeout) {
  sim::Payload payload;
  payload.set("name", name);
  if (!credential_.empty()) payload.set("credential", credential_);
  rpc_.call(giis, "grip.lookup", std::move(payload), timeout,
            [callback = std::move(callback)](sim::RpcOutcome outcome,
                                             const sim::Payload& reply) {
              if (outcome != sim::RpcOutcome::kAnswered) {
                callback(std::nullopt);
                return;
              }
              try {
                callback(classad::parse_ad(reply.get("ad")));
              } catch (const classad::ParseError&) {
                callback(std::nullopt);
              }
            });
}

}  // namespace condorg::mds
