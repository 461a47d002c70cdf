/**
 * @file
 * The scheduler equivalence scenarios, shared by the test binaries
 * that run the schedulers over them: the edge-class HDAs and the
 * hand-built workloads that drive dispatch's corner cases, plus the
 * factory workloads, as one named list.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "dataflow/style.hh"
#include "dnn/model_zoo.hh"
#include "workload/workload.hh"

namespace herald::test
{

using accel::Accelerator;
using dataflow::DataflowStyle;
using workload::Workload;

/** The edge-class two-way HDA, optionally with another buffer size. */
inline Accelerator
edgeHda(std::uint64_t buffer_bytes = accel::edgeClass().globalBufferBytes)
{
    accel::AcceleratorClass chip = accel::edgeClass();
    chip.globalBufferBytes = buffer_bytes;
    return Accelerator::makeHda(
        chip, {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
        {512, 512}, {8.0, 8.0});
}

inline Accelerator
threeWayHda()
{
    return Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss},
        {512, 256, 256}, {8.0, 4.0, 4.0});
}

/** Small mixed workload with batches and a staggered late stream. */
inline Workload
miniMixed()
{
    Workload wl("mini-mixed");
    dnn::Model conv_net("ConvNet");
    conv_net.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
    conv_net.addLayer(dnn::makeDepthwise("dw", 64, 56, 56, 3, 3));
    conv_net.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
    conv_net.addLayer(dnn::makeFullyConnected("fc", 10, 128));
    dnn::Model fc_net("FcNet");
    fc_net.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
    fc_net.addLayer(dnn::makeFullyConnected("f2", 1024, 1024));
    wl.addModel(std::move(conv_net), 2);
    wl.addModel(std::move(fc_net), 2, /*arrival=*/5e5,
                /*deadline=*/4e6);
    return wl;
}

/** One-layer frames stress the exhausted-before-release paths. */
inline Workload
tinyFramesFarApart()
{
    Workload wl("tiny-frames");
    dnn::Model tiny("Tiny");
    tiny.addLayer(dnn::makeFullyConnected("f", 256, 256));
    wl.addPeriodicModel(std::move(tiny), 6, /*period=*/1e7,
                        /*deadline=*/5e6);
    return wl;
}

/**
 * Sub-epsilon arrival ties: distinct arrivals closer than the
 * scheduler's kEps (1e-6 cycles) drive the nothing-has-arrived
 * fallback through its epsilon-tolerant reference scan (the one
 * branch the exact-equal-band closed form cannot take), including a
 * chained band that extends past the first epsilon window.
 */
inline Workload
subEpsilonArrivals()
{
    Workload wl("sub-eps-arrivals");
    dnn::Model a("A");
    a.addLayer(dnn::makeFullyConnected("f", 256, 256));
    a.addLayer(dnn::makeFullyConnected("g", 128, 256));
    dnn::Model b("B");
    b.addLayer(dnn::makeFullyConnected("f", 512, 128));
    dnn::Model c("C");
    c.addLayer(dnn::makeConv("c", 32, 16, 30, 30, 3, 3));
    wl.addModel(std::move(a), 2, /*arrival=*/100.0,
                /*deadline=*/6e6);
    wl.addModel(std::move(b), 1, /*arrival=*/100.0000005,
                /*deadline=*/4e6); // within kEps of 100.0
    wl.addModel(std::move(c), 1, /*arrival=*/100.0000012,
                /*deadline=*/5e6); // chains past the first window
    wl.addModel(dnn::mobileNetV2(), 1, /*arrival=*/3e7);
    return wl;
}

struct NamedWorkload
{
    std::string name;
    Workload wl;
};

inline std::vector<NamedWorkload>
scenarios()
{
    std::vector<NamedWorkload> out;
    out.push_back({"mini-mixed", miniMixed()});
    out.push_back({"tiny-frames", tinyFramesFarApart()});
    out.push_back({"sub-eps", subEpsilonArrivals()});
    out.push_back({"arvrA", workload::arvrA()});
    out.push_back({"arvrA60fps", workload::arvrA60fps(3)});
    out.push_back({"mixedTenant", workload::mixedTenantScenario(2)});
    return out;
}

} // namespace herald::test
