// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/platform/platform.h"

#include <cassert>
#include <thread>

namespace trustlite {

void Platform::AssertThreadAffinity() const {
#ifndef NDEBUG
  size_t self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  self |= 1;  // Never collides with the open-latch sentinel 0.
  size_t expected = 0;
  if (!owner_thread_.compare_exchange_strong(expected, self,
                                             std::memory_order_acq_rel)) {
    assert(expected == self &&
           "Platform driven from a second thread without "
           "ReleaseThreadAffinity() (one-Platform-per-thread contract, "
           "see platform.h)");
  }
#endif
}

Platform::Platform(const PlatformConfig& config) : config_(config) {
  prom_ = std::make_unique<Prom>("prom", kPromBase, kPromSize);
  sram_ = std::make_unique<Ram>("sram", kSramBase, kSramSize);
  dram_ = std::make_unique<Ram>("dram", kDramBase, kDramSize,
                                config.dram_wait_states);
  sysctl_ = std::make_unique<SysCtl>(kSysCtlBase);
  timer_ = std::make_unique<Timer>(kTimerBase, /*irq=*/0);
  uart_ = std::make_unique<Uart>(kUartBase);
  sha_ = std::make_unique<ShaAccel>(kShaBase, config.sha_cycles_per_block);
  trng_ = std::make_unique<Trng>(kTrngBase, config.trng_seed);
  gpio_ = std::make_unique<Gpio>(kGpioBase);

  bus_.Attach(prom_.get());
  bus_.Attach(sram_.get());
  bus_.Attach(dram_.get());
  bus_.Attach(sysctl_.get());
  bus_.Attach(timer_.get());
  bus_.Attach(uart_.get());
  bus_.Attach(sha_.get());
  bus_.Attach(trng_.get());
  bus_.Attach(gpio_.get());

  if (config.with_dma) {
    dma_ = std::make_unique<DmaEngine>(kDmaBase, &bus_, config.dma_mode);
    bus_.Attach(dma_.get());
  }

  if (config.with_mpu) {
    mpu_ = std::make_unique<EaMpu>(kMpuMmioBase, config.mpu_regions,
                                   config.mpu_rules);
    mpu_->SetFastPath(config.fast_path);
    bus_.Attach(mpu_.get());
    bus_.SetProtectionUnit(mpu_.get());
  }
  bus_.SetRouteMemo(config.fast_path);

  CpuConfig cpu_config;
  cpu_config.secure_exceptions = config.secure_exceptions;
  cpu_config.sanitize_faulting_ip = config.sanitize_faulting_ip;
  cpu_config.decode_cache = config.fast_path;
  cpu_config.fusion = config.fast_path && config.fusion;
  cpu_config.cycles = config.cycles;
  cpu_ = std::make_unique<Cpu>(&bus_, sysctl_.get(), cpu_config);
  cpu_->AttachMpu(mpu_.get());
  cpu_->AddIrqSource(timer_.get());
  cpu_->Reset(kPromBase);

  hub_.BindCpu(cpu_.get());
}

Status Platform::InstallImage(const SystemImage& image, uint32_t directory) {
  AssertThreadAffinity();
  Result<std::vector<uint8_t>> bytes = image.Build();
  if (!bytes.ok()) {
    return bytes.status();
  }
  if (directory < kPromBase ||
      directory + bytes->size() > kPromBase + kPromSize) {
    return OutOfRange("system image does not fit in PROM");
  }
  prom_->LoadBytes(directory - kPromBase, *bytes);
  return OkStatus();
}

Result<LoadReport> Platform::Boot(const LoaderConfig& loader_config) {
  AssertThreadAffinity();
  if (mpu_ == nullptr) {
    return FailedPrecondition("platform built without an MPU");
  }
  SecureLoader loader(&bus_, mpu_.get(), loader_config);
  return loader.Boot();
}

Result<LoadReport> Platform::BootAndLaunch(const LoaderConfig& loader_config) {
  Result<LoadReport> report = Boot(loader_config);
  if (report.ok()) {
    LaunchOs(*report);
  }
  return report;
}

void Platform::LaunchOs(const LoadReport& report) {
  cpu_->Reset(report.os_entry);
  cpu_->set_reg(kRegSp, report.os_sp);
}

void Platform::HardReset() {
  AssertThreadAffinity();
  if (!hub_.empty()) {
    // Reported before any state is torn down so sinks can close out the
    // pre-reset epoch with consistent cycle stamps.
    ResetEvent event;
    event.cycle = cpu_->cycles();
    hub_.OnReset(event);
  }
  bus_.ResetDevices();
  cpu_->Reset(kPromBase);
}

void Platform::AddEventSink(EventSink* sink) {
  hub_.Add(sink);
  RewireEventSinks();
}

void Platform::RemoveEventSink(EventSink* sink) {
  hub_.Remove(sink);
  RewireEventSinks();
}

void Platform::RewireEventSinks() {
  EventSink* sink = hub_.empty() ? nullptr : &hub_;
  cpu_->SetEventSink(sink, sink != nullptr && hub_.AnyWantsInstructionEvents());
  // Fused groups precompute tail fetch permissions, which would starve a
  // per-fetch MpuCheckEvent consumer; fall back to unfused dispatch while
  // one is attached.
  cpu_->SetFusionSuppressed(sink != nullptr && hub_.AnyWantsMpuCheckEvents());
  bus_.SetEventSink(sink);
  uart_->SetEventSink(sink);
  timer_->SetEventSink(sink);
  if (mpu_ != nullptr) {
    mpu_->SetEventSink(sink,
                       sink != nullptr && hub_.AnyWantsMpuCheckEvents());
  }
  if (dma_ != nullptr) {
    dma_->SetEventSink(sink);
  }
}

StepEvent Platform::Run(uint64_t max_instructions) {
  AssertThreadAffinity();
  return cpu_->Run(max_instructions);
}

StepEvent Platform::RunUntilCycle(uint64_t target_cycle) {
  AssertThreadAffinity();
  return cpu_->RunUntilCycle(target_cycle);
}

bool Platform::RunUntilIp(uint32_t target_ip, uint64_t max_steps) {
  AssertThreadAffinity();
  for (uint64_t i = 0; i < max_steps; ++i) {
    if (cpu_->ip() == target_ip) {
      return true;
    }
    if (cpu_->Step() == StepEvent::kHalted) {
      return cpu_->ip() == target_ip;
    }
  }
  return false;
}

}  // namespace trustlite
