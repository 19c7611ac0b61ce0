#include "serve/corpus.h"

namespace rtp::serve {

Tenant::Tenant(std::string tenant_name) : name(std::move(tenant_name)) {
  obs::MetricsRegistry& registry = obs::Registry();
  m_requests =
      registry.FindOrCreateCounter("serve.tenant." + name + ".requests");
  m_errors = registry.FindOrCreateCounter("serve.tenant." + name + ".errors");
  m_trips = registry.FindOrCreateCounter("serve.tenant." + name + ".trips");
}

std::shared_ptr<Tenant> TenantRegistry::GetOrCreate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  auto tenant = std::make_shared<Tenant>(name);
  tenants_.emplace(name, tenant);
  RTP_OBS_GAUGE_SET("serve.tenants", tenants_.size());
  return tenant;
}

std::shared_ptr<Tenant> TenantRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Tenant>> TenantRegistry::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Tenant>> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) out.push_back(tenant);
  return out;  // std::map iterates sorted by name
}

}  // namespace rtp::serve
