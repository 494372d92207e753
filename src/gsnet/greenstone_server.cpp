#include "gsnet/greenstone_server.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "common/log.h"
#include "obs/trace.h"

namespace gsalert::gsnet {

// --- administration ----------------------------------------------------

Status GreenstoneServer::add_collection(docmodel::CollectionConfig config,
                                        docmodel::DataSet data) {
  if (collections_.contains(config.name)) {
    return Status{ErrorCode::kAlreadyExists,
                  "collection " + config.name + " already exists"};
  }
  config.host = name();
  Entry entry;
  entry.collection.config = std::move(config);
  entry.collection.data = std::move(data);
  entry.collection.build_version = 1;
  entry.engine.build(entry.collection);
  auto [it, inserted] =
      collections_.emplace(entry.collection.config.name, std::move(entry));
  const docmodel::Collection& coll = it->second.collection;
  if (extension_) extension_->on_collection_configured(coll);
  emit(make_event(docmodel::EventType::kCollectionBuilt, coll,
                  coll.data.docs()));
  commit_journal();
  return Status::ok();
}

Status GreenstoneServer::rebuild_collection(const std::string& coll_name,
                                            docmodel::DataSet data) {
  const auto it = collections_.find(coll_name);
  if (it == collections_.end()) {
    return Status{ErrorCode::kNotFound, "no collection " + coll_name};
  }
  Entry& entry = it->second;
  // Diff the builds: the rebuilt event announces new documents; changed
  // and vanished documents get their own events so identity-centered
  // profiles ("watch this") observe every kind of change.
  std::unordered_map<DocumentId, const docmodel::Document*> old_docs;
  for (const auto& d : entry.collection.data.docs()) old_docs[d.id] = &d;
  std::vector<docmodel::Document> fresh;
  std::vector<docmodel::Document> modified;
  for (const auto& d : data.docs()) {
    const auto old = old_docs.find(d.id);
    if (old == old_docs.end()) {
      fresh.push_back(d);
    } else {
      if (!(*old->second == d)) modified.push_back(d);
      old_docs.erase(old);
    }
  }
  std::vector<docmodel::Document> removed;
  removed.reserve(old_docs.size());
  for (const auto& [id, d] : old_docs) removed.push_back(*d);
  entry.collection.data = std::move(data);
  entry.collection.build_version += 1;
  entry.engine.build(entry.collection);
  // One rebuild can raise up to three events; the bracket lets the
  // alerting extension coalesce their floods into a single batch that is
  // flushed synchronously before this call returns.
  if (extension_) extension_->on_build_begin();
  emit(make_event(docmodel::EventType::kCollectionRebuilt, entry.collection,
                  std::move(fresh)));
  if (!modified.empty()) {
    emit(make_event(docmodel::EventType::kDocumentsModified,
                    entry.collection, std::move(modified)));
  }
  if (!removed.empty()) {
    emit(make_event(docmodel::EventType::kDocumentsRemoved,
                    entry.collection, std::move(removed)));
  }
  if (extension_) extension_->on_build_complete();
  commit_journal();
  return Status::ok();
}

Status GreenstoneServer::add_documents(
    const std::string& coll_name, std::vector<docmodel::Document> docs) {
  const auto it = collections_.find(coll_name);
  if (it == collections_.end()) {
    return Status{ErrorCode::kNotFound, "no collection " + coll_name};
  }
  Entry& entry = it->second;
  for (const auto& doc : docs) {
    entry.collection.data.add(doc);
    entry.engine.add_document(doc,
                              entry.collection.config.indexed_attributes);
  }
  entry.collection.build_version += 1;
  emit(make_event(docmodel::EventType::kDocumentsAdded, entry.collection,
                  std::move(docs)));
  commit_journal();
  return Status::ok();
}

Status GreenstoneServer::remove_collection(const std::string& coll_name) {
  const auto it = collections_.find(coll_name);
  if (it == collections_.end()) {
    return Status{ErrorCode::kNotFound, "no collection " + coll_name};
  }
  const CollectionRef ref = it->second.collection.config.ref();
  docmodel::Event event = make_event(docmodel::EventType::kCollectionDeleted,
                                     it->second.collection, {});
  collections_.erase(it);
  if (extension_) extension_->on_collection_removed(ref);
  emit(event);
  commit_journal();
  return Status::ok();
}

Status GreenstoneServer::add_sub_collection(const std::string& super_name,
                                            const CollectionRef& sub) {
  const auto it = collections_.find(super_name);
  if (it == collections_.end()) {
    return Status{ErrorCode::kNotFound, "no collection " + super_name};
  }
  auto& subs = it->second.collection.config.sub_collections;
  if (std::find(subs.begin(), subs.end(), sub) != subs.end()) {
    return Status{ErrorCode::kAlreadyExists, sub.str() + " already linked"};
  }
  subs.push_back(sub);
  if (extension_) extension_->on_collection_configured(it->second.collection);
  commit_journal();
  return Status::ok();
}

Status GreenstoneServer::remove_sub_collection(const std::string& super_name,
                                               const CollectionRef& sub) {
  const auto it = collections_.find(super_name);
  if (it == collections_.end()) {
    return Status{ErrorCode::kNotFound, "no collection " + super_name};
  }
  auto& subs = it->second.collection.config.sub_collections;
  const auto pos = std::find(subs.begin(), subs.end(), sub);
  if (pos == subs.end()) {
    return Status{ErrorCode::kNotFound, sub.str() + " not linked"};
  }
  subs.erase(pos);
  if (extension_) extension_->on_collection_configured(it->second.collection);
  commit_journal();
  return Status::ok();
}

// --- local queries ------------------------------------------------------------

const docmodel::Collection* GreenstoneServer::collection(
    const std::string& coll_name) const {
  const auto it = collections_.find(coll_name);
  return it == collections_.end() ? nullptr : &it->second.collection;
}

const retrieval::Engine* GreenstoneServer::engine(
    const std::string& coll_name) const {
  const auto it = collections_.find(coll_name);
  return it == collections_.end() ? nullptr : &it->second.engine;
}

std::vector<std::string> GreenstoneServer::collection_names() const {
  std::vector<std::string> out;
  out.reserve(collections_.size());
  for (const auto& [n, entry] : collections_) out.push_back(n);
  return out;
}

// --- events ----------------------------------------------------------------------

docmodel::Event GreenstoneServer::make_event(
    docmodel::EventType type, const docmodel::Collection& coll,
    std::vector<docmodel::Document> docs) {
  docmodel::Event event;
  event.id = docmodel::EventId{name(), next_event_seq()};
  event.type = type;
  event.collection = coll.config.ref();
  event.physical_origin = coll.config.ref();
  event.build_version = coll.build_version;
  event.docs = std::move(docs);
  return event;
}

void GreenstoneServer::emit(const docmodel::Event& event) {
  if (extension_) extension_->on_local_event(event);
}

// --- topology ----------------------------------------------------------------------

void GreenstoneServer::set_host_ref(const std::string& host, NodeId node) {
  host_refs_[host] = node;
}

NodeId GreenstoneServer::host_ref(const std::string& host) const {
  const auto it = host_refs_.find(host);
  return it == host_refs_.end() ? NodeId::invalid() : it->second;
}

void GreenstoneServer::attach_gds(NodeId gds_node) {
  gds_.attach(&network(), id(), name(), gds_node);
}

void GreenstoneServer::set_extension(
    std::unique_ptr<ServerExtension> extension) {
  extension_ = std::move(extension);
  if (extension_) extension_->attach(*this);
}

void GreenstoneServer::send_to(NodeId to, const wire::Envelope& env) {
  network().send(id(), to, env.pack());
}

void GreenstoneServer::ensure_endpoint() {
  // Network::start only schedules on_start; a resolve issued before the
  // scheduler runs (test setup code does this) must self-attach.
  if (!endpoint_.attached()) {
    endpoint_.attach(&network(), id(), name(), kEndpointTag,
                     0x65E47BADC0FFEEULL ^ id().value());
  }
}

journal::Journal* GreenstoneServer::journal() {
  ensure_journal();
  return journal_.get();
}

void GreenstoneServer::ensure_journal() {
  if (journal_ || !has_network()) return;
  journal_ = std::make_unique<journal::Journal>(
      network().storage(id()), "node", name(), config_.journal);
  journal_->set_clock([this] { return network().now(); });
  journal_->set_snapshot_writer([this](wire::Writer& w) {
    w.u64(event_seq_);
    w.u64(msg_id_);
    wire::Writer ext;
    if (extension_) extension_->encode_durable(ext);
    w.bytes(ext.buffer());
  });
  journal_->recover(
      [this](wire::Reader& r) {
        // The id counters are modeled durable-in-memory; max-merge so a
        // snapshot that lags the live counters never winds them back.
        event_seq_ = std::max(event_seq_, r.u64());
        msg_id_ = std::max(msg_id_, r.u64());
        const std::vector<std::byte> blob = r.bytes();
        if (r.ok() && extension_) {
          wire::Reader ext{blob};
          extension_->recover_durable(ext);
        }
      },
      [this](std::uint8_t type, wire::Reader& r, std::uint64_t /*lsn*/) {
        if (type >= 64 && extension_) extension_->replay_journal(type, r);
      });
}

// --- sim::Node -------------------------------------------------------------------------

void GreenstoneServer::on_start() {
  ensure_journal();
  // attach_gds is called before Network::start, but the client needs the
  // network reference which is only valid once registered; re-attach here.
  if (gds_.attached()) {
    gds_.attach(&network(), id(), name(), gds_.gds_node());
    gds_.start();
  }
  ensure_endpoint();
  mediator_.attach(this);
  if (extension_) extension_->on_started();
  commit_journal();
}

void GreenstoneServer::on_recover() {
  // Collections are durable (on disk in real Greenstone); pending protocol
  // state (endpoint requests, reorder buffers, scattered queries) is
  // volatile.
  endpoint_.cancel_all();
  mediator_.cancel_all();
  // Reopen and replay: the extension wipes its journaled state first,
  // then the recovery below feeds the snapshot + records back into it.
  journal_.reset();
  if (extension_) extension_->on_recovered();
  ensure_journal();
}

void GreenstoneServer::on_rejoin() {
  if (gds_.attached()) gds_.restart();
  if (extension_) extension_->on_restarted();
}

void GreenstoneServer::on_timer(std::uint64_t token) {
  if (gds_.on_timer(token)) {
    commit_journal();
    return;
  }
  if (endpoint_.on_timer(token)) {
    commit_journal();
    return;
  }
  if (mediator_.on_timer(token)) {
    commit_journal();
    return;
  }
  if (extension_) extension_->on_timer_token(token);
  commit_journal();
}

void GreenstoneServer::on_packet(NodeId from, const sim::Packet& packet) {
  dispatch_packet(from, packet);
  // Group commit: one fsync per handled packet, however many journal
  // records the handlers (or the extension) appended above.
  commit_journal();
}

void GreenstoneServer::dispatch_packet(NodeId from, const sim::Packet& packet) {
  auto decoded = wire::unpack(packet);
  if (!decoded.ok()) {
    logf(LogLevel::kWarn, network().now(), name(), "malformed packet");
    return;
  }
  wire::Envelope env = std::move(decoded).take();
  // Handlers (and the alerting extension they call into) run under the
  // incoming message's trace context.
  const obs::TraceScope trace_scope{
      obs::TraceContext{env.trace_id, env.span_id, env.hop}};
  switch (env.type) {
    case wire::MessageType::kGsCollRequest:
      handle_coll_request(from, env);
      return;
    case wire::MessageType::kGsCollResponse:
      handle_coll_response(env);
      return;
    case wire::MessageType::kGsSearchRequest:
      handle_search_request(from, env);
      return;
    case wire::MessageType::kGsSearchResponse:
      handle_search_response(env);
      return;
    case wire::MessageType::kGsMediatorQuery:
      mediator_.attach(this);
      mediator_.handle_query(from, env);
      return;
    case wire::MessageType::kGsMediatorReply:
      mediator_.handle_reply(env);
      return;
    case wire::MessageType::kGdsRegisterAck:
      return;  // registration confirmed; nothing to do
    case wire::MessageType::kGdsResolveReply:
      gds_.handle_resolve_reply(env);
      return;
    case wire::MessageType::kGdsDeliver: {
      // Peek, don't decode: the payload stays a view into the shared body
      // frame and is handed to the extension without a copy.
      auto body = gds::BroadcastView::peek(env.body);
      if (body.ok() && extension_) {
        extension_->on_gds_message(body.value().origin_server,
                                   body.value().payload_type,
                                   body.value().payload);
      }
      return;
    }
    default:
      if (extension_ && extension_->handle_envelope(from, env)) return;
      logf(LogLevel::kDebug, network().now(), name(),
           "unhandled message type ", static_cast<unsigned>(env.type));
  }
}

// --- GS protocol -----------------------------------------------------------------------

void GreenstoneServer::resolve_collection(
    const std::string& coll_name, std::vector<std::string> chain,
    bool as_subcollection, std::function<void(CollResult)> done) {
  ensure_endpoint();
  const auto it = collections_.find(coll_name);
  if (it == collections_.end()) {
    done(CollResult{.ok = false,
                    .error = "no collection " + name() + "." + coll_name});
    return;
  }
  const docmodel::Collection& coll = it->second.collection;
  if (!coll.config.is_public && !as_subcollection) {
    done(CollResult{.ok = false,
                    .error = coll.config.ref().str() + " is private"});
    return;
  }
  const std::string self_ref = coll.config.ref().str();
  if (std::find(chain.begin(), chain.end(), self_ref) != chain.end()) {
    // Cycle in the collection graph: cut it, returning nothing new.
    done(CollResult{.ok = true, .servers_contacted = 0});
    return;
  }
  chain.push_back(self_ref);

  // Aggregation state shared by all sub-collection branches.
  struct Aggregation {
    CollResult result;
    std::size_t outstanding = 0;
    std::function<void(CollResult)> done;
    /// network_hop: false for in-process recursion into a local
    /// sub-collection — only crossing to another server deepens the tree.
    void branch_done(CollResult branch, bool network_hop = true) {
      if (branch.ok) {
        for (auto& d : branch.docs) result.docs.push_back(std::move(d));
        result.hops = std::max(
            result.hops, branch.hops + (network_hop ? 1u : 0u));
        result.servers_contacted += branch.servers_contacted;
      } else {
        // Best-effort aggregation: remember the first error but still
        // return the documents that were reachable.
        if (result.error.empty()) result.error = branch.error;
      }
      if (--outstanding == 0) done(std::move(result));
    }
    /// The dispatch loop holds one synthetic branch so `outstanding` stays
    /// positive while sub-requests are being issued.
    void dispatch_complete() {
      if (--outstanding == 0) done(std::move(result));
    }
  };
  auto agg = std::make_shared<Aggregation>();
  agg->result.ok = true;
  agg->result.docs = coll.data.docs();
  agg->result.hops = 0;
  agg->result.servers_contacted = 1;
  agg->done = std::move(done);
  agg->outstanding = coll.config.sub_collections.size() + 1;

  for (const CollectionRef& sub : coll.config.sub_collections) {
    if (sub.host == name()) {
      // Local sub-collection: recurse in-process (Hamilton.C -> Hamilton.B
      // style links). Count it as the same server visit.
      resolve_collection(sub.name, chain, /*as_subcollection=*/true,
                         [agg](CollResult r) {
                           if (r.ok) r.servers_contacted = 0;
                           agg->branch_done(std::move(r),
                                            /*network_hop=*/false);
                         });
      continue;
    }
    const NodeId remote = host_ref(sub.host);
    if (!remote.valid()) {
      agg->branch_done(CollResult{
          .ok = false, .error = "no reference to host " + sub.host});
      continue;
    }
    CollRequestBody request;
    request.request_id = next_msg_id();
    request.collection_name = sub.name;
    request.as_subcollection = true;
    request.chain = chain;
    wire::Writer w;
    request.encode(w);
    wire::Envelope env = wire::make_envelope(
        wire::MessageType::kGsCollRequest, name(), sub.host,
        request.request_id, std::move(w));
    endpoint_.request(
        request.request_id, std::move(env),
        {.policy = {.deadline = config_.request_timeout}, .to = remote},
        [agg](const wire::Envelope* reply) {
          if (reply == nullptr) {
            agg->branch_done(CollResult{
                .ok = false,
                .error = "timeout waiting for sub-collection response"});
            return;
          }
          auto response = CollResponseBody::decode(reply->body);
          if (!response.ok()) {
            agg->branch_done(CollResult{
                .ok = false, .error = "malformed sub-collection response"});
            return;
          }
          CollResponseBody body = std::move(response).take();
          CollResult r;
          r.ok = body.ok;
          r.error = std::move(body.error);
          r.docs = std::move(body.docs);
          r.hops = body.hops;
          r.servers_contacted = body.servers_contacted;
          agg->branch_done(std::move(r));
        });
  }
  agg->dispatch_complete();
}

void GreenstoneServer::resolve_search(const std::string& coll_name,
                                      const std::string& query_text,
                                      std::vector<std::string> chain,
                                      bool as_subcollection,
                                      std::function<void(SearchResult)> done) {
  ensure_endpoint();
  const auto it = collections_.find(coll_name);
  if (it == collections_.end()) {
    done(SearchResult{.ok = false,
                      .error = "no collection " + name() + "." + coll_name});
    return;
  }
  const docmodel::Collection& coll = it->second.collection;
  if (!coll.config.is_public && !as_subcollection) {
    done(SearchResult{.ok = false,
                      .error = coll.config.ref().str() + " is private"});
    return;
  }
  const std::string self_ref = coll.config.ref().str();
  if (std::find(chain.begin(), chain.end(), self_ref) != chain.end()) {
    done(SearchResult{.ok = true, .servers_contacted = 0});
    return;
  }
  chain.push_back(self_ref);

  // Local hits from this collection's own index.
  auto local = it->second.engine.search(query_text);
  if (!local.ok()) {
    done(SearchResult{.ok = false, .error = local.error().str()});
    return;
  }

  struct Aggregation {
    SearchResult result;
    std::size_t outstanding = 0;
    std::function<void(SearchResult)> done;
    void branch_done(SearchResult branch, bool network_hop) {
      if (branch.ok) {
        result.hits.insert(result.hits.end(), branch.hits.begin(),
                           branch.hits.end());
        result.hops = std::max(result.hops,
                               branch.hops + (network_hop ? 1u : 0u));
        result.servers_contacted += branch.servers_contacted;
      } else if (result.error.empty()) {
        result.error = branch.error;
      }
      finish_one();
    }
    void finish_one() {
      if (--outstanding == 0) done(std::move(result));
    }
  };
  auto agg = std::make_shared<Aggregation>();
  agg->result.ok = true;
  agg->result.hits = std::move(local).take();
  agg->result.servers_contacted = 1;
  agg->done = std::move(done);
  agg->outstanding = coll.config.sub_collections.size() + 1;

  for (const CollectionRef& sub : coll.config.sub_collections) {
    if (sub.host == name()) {
      resolve_search(sub.name, query_text, chain, /*as_subcollection=*/true,
                     [agg](SearchResult r) {
                       if (r.ok) r.servers_contacted = 0;
                       agg->branch_done(std::move(r), /*network_hop=*/false);
                     });
      continue;
    }
    const NodeId remote = host_ref(sub.host);
    if (!remote.valid()) {
      agg->branch_done(SearchResult{.ok = false,
                                    .error = "no reference to host " +
                                             sub.host},
                       true);
      continue;
    }
    SearchRequestBody request;
    request.request_id = next_msg_id();
    request.collection_name = sub.name;
    request.query_text = query_text;
    request.as_subcollection = true;
    request.chain = chain;
    wire::Writer w;
    request.encode(w);
    wire::Envelope env = wire::make_envelope(
        wire::MessageType::kGsSearchRequest, name(), sub.host,
        request.request_id, std::move(w));
    endpoint_.request(
        request.request_id, std::move(env),
        {.policy = {.deadline = config_.request_timeout}, .to = remote},
        [agg](const wire::Envelope* reply) {
          if (reply == nullptr) {
            agg->branch_done(
                SearchResult{.ok = false,
                             .error =
                                 "timeout waiting for sub-collection search"},
                /*network_hop=*/true);
            return;
          }
          auto response = SearchResponseBody::decode(reply->body);
          if (!response.ok()) {
            agg->branch_done(
                SearchResult{.ok = false,
                             .error = "malformed sub-collection search"},
                /*network_hop=*/true);
            return;
          }
          SearchResponseBody body = std::move(response).take();
          SearchResult r;
          r.ok = body.ok;
          r.error = std::move(body.error);
          r.hits = std::move(body.hits);
          r.hops = body.hops;
          r.servers_contacted = body.servers_contacted;
          agg->branch_done(std::move(r), /*network_hop=*/true);
        });
  }
  agg->finish_one();
}

void GreenstoneServer::handle_search_request(NodeId from,
                                             const wire::Envelope& env) {
  auto decoded = SearchRequestBody::decode(env.body);
  if (!decoded.ok()) return;
  const SearchRequestBody request = std::move(decoded).take();
  resolve_search(
      request.collection_name, request.query_text, request.chain,
      request.as_subcollection,
      [this, from, request_id = request.request_id](SearchResult result) {
        SearchResponseBody response;
        response.request_id = request_id;
        response.ok = result.ok;
        response.error = result.error;
        response.hits = std::move(result.hits);
        response.hops = result.hops;
        response.servers_contacted = result.servers_contacted;
        wire::Writer w;
        response.encode(w);
        send_to(from, wire::make_envelope(wire::MessageType::kGsSearchResponse,
                                          name(), "", next_msg_id(),
                                          std::move(w)));
      });
}

void GreenstoneServer::handle_search_response(const wire::Envelope& env) {
  auto decoded = SearchResponseBody::decode(env.body);
  if (!decoded.ok()) return;
  endpoint_.complete(decoded.value().request_id, env);
}

void GreenstoneServer::handle_coll_request(NodeId from,
                                           const wire::Envelope& env) {
  auto decoded = CollRequestBody::decode(env.body);
  if (!decoded.ok()) return;
  const CollRequestBody request = std::move(decoded).take();
  resolve_collection(
      request.collection_name, request.chain, request.as_subcollection,
      [this, from, request_id = request.request_id](CollResult result) {
        CollResponseBody response;
        response.request_id = request_id;
        response.ok = result.ok;
        response.error = result.error;
        response.docs = std::move(result.docs);
        response.hops = result.hops;
        response.servers_contacted = result.servers_contacted;
        wire::Writer w;
        response.encode(w);
        wire::Envelope out = wire::make_envelope(
            wire::MessageType::kGsCollResponse, name(), "", next_msg_id(),
            std::move(w));
        send_to(from, out);
      });
}

void GreenstoneServer::handle_coll_response(const wire::Envelope& env) {
  auto decoded = CollResponseBody::decode(env.body);
  if (!decoded.ok()) return;
  endpoint_.complete(decoded.value().request_id, env);
}

}  // namespace gsalert::gsnet
