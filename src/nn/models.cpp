#include "nn/models.hpp"

#include "util/assert.hpp"

namespace scalpel::models {
namespace {

/// Small builder helper: tracks the "current" node in a chain while still
/// allowing explicit branching (used by ResNet blocks).
class Chain {
 public:
  explicit Chain(Graph& g) : g_(g) {}

  NodeId input(Shape shape) {
    cur_ = g_.add(LayerSpec::input(std::move(shape)));
    return cur_;
  }
  NodeId conv(std::int64_t c, std::int64_t k, std::int64_t s, std::int64_t p,
              const std::string& name) {
    cur_ = g_.add(LayerSpec::conv(c, k, s, p, name), {cur_});
    return cur_;
  }
  NodeId dwconv(std::int64_t k, std::int64_t s, std::int64_t p,
                const std::string& name) {
    cur_ = g_.add(LayerSpec::dwconv(k, s, p, name), {cur_});
    return cur_;
  }
  NodeId bn(const std::string& name) {
    cur_ = g_.add(LayerSpec::batchnorm(name), {cur_});
    return cur_;
  }
  NodeId relu(const std::string& name) {
    cur_ = g_.add(LayerSpec::relu(name), {cur_});
    return cur_;
  }
  NodeId maxpool(std::int64_t k, std::int64_t s, const std::string& name,
                 std::int64_t p = 0) {
    cur_ = g_.add(LayerSpec::maxpool(k, s, name, p), {cur_});
    return cur_;
  }
  NodeId avgpool(std::int64_t k, std::int64_t s, const std::string& name) {
    cur_ = g_.add(LayerSpec::avgpool(k, s, name), {cur_});
    return cur_;
  }
  NodeId gavg(const std::string& name) {
    cur_ = g_.add(LayerSpec::global_avgpool(name), {cur_});
    return cur_;
  }
  NodeId flatten(const std::string& name) {
    cur_ = g_.add(LayerSpec::flatten(name), {cur_});
    return cur_;
  }
  NodeId fc(std::int64_t units, const std::string& name) {
    cur_ = g_.add(LayerSpec::fc(units, name), {cur_});
    return cur_;
  }
  NodeId softmax(const std::string& name) {
    cur_ = g_.add(LayerSpec::softmax(name), {cur_});
    return cur_;
  }
  NodeId add_from(NodeId other, const std::string& name) {
    cur_ = g_.add(LayerSpec::add(name), {cur_, other});
    return cur_;
  }
  NodeId at() const { return cur_; }
  void jump_to(NodeId id) { cur_ = id; }

 private:
  Graph& g_;
  NodeId cur_ = -1;
};

}  // namespace

Graph lenet5(std::int64_t num_classes) {
  Graph g("lenet5");
  Chain c(g);
  c.input(Shape{1, 28, 28});
  c.conv(6, 5, 1, 2, "conv1");
  c.relu("relu1");
  c.maxpool(2, 2, "pool1");
  c.conv(16, 5, 1, 0, "conv2");
  c.relu("relu2");
  c.maxpool(2, 2, "pool2");
  c.flatten("flatten");
  c.fc(120, "fc1");
  c.relu("relu3");
  c.fc(84, "fc2");
  c.relu("relu4");
  c.fc(num_classes, "fc3");
  c.softmax("softmax");
  return g;
}

Graph alexnet(std::int64_t num_classes, std::int64_t resolution) {
  Graph g("alexnet");
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  c.conv(96, 11, 4, 2, "conv1");
  c.relu("relu1");
  c.maxpool(3, 2, "pool1");
  c.conv(256, 5, 1, 2, "conv2");
  c.relu("relu2");
  c.maxpool(3, 2, "pool2");
  c.conv(384, 3, 1, 1, "conv3");
  c.relu("relu3");
  c.conv(384, 3, 1, 1, "conv4");
  c.relu("relu4");
  c.conv(256, 3, 1, 1, "conv5");
  c.relu("relu5");
  c.maxpool(3, 2, "pool5");
  c.flatten("flatten");
  c.fc(4096, "fc6");
  c.relu("relu6");
  c.fc(4096, "fc7");
  c.relu("relu7");
  c.fc(num_classes, "fc8");
  c.softmax("softmax");
  return g;
}

namespace {

/// Shared ResNet builder. `blocks_per_stage` selects the depth variant;
/// `bottleneck` switches BasicBlock (3x3 + 3x3) to Bottleneck
/// (1x1 reduce + 3x3 + 1x1 expand x4).
Graph resnet_like(const std::string& name,
                  const std::vector<int>& blocks_per_stage, bool bottleneck,
                  std::int64_t num_classes, std::int64_t resolution) {
  Graph g(name);
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  c.conv(64, 7, 2, 3, "conv1");
  c.bn("bn1");
  c.relu("relu1");
  c.maxpool(3, 2, "pool1", 1);

  const std::int64_t expansion = bottleneck ? 4 : 1;
  std::int64_t channels = 64;
  int block_idx = 0;
  for (std::size_t stage = 0; stage < blocks_per_stage.size(); ++stage) {
    const std::int64_t width = 64 << stage;        // inner width
    const std::int64_t out_ch = width * expansion;  // block output channels
    for (int blk = 0; blk < blocks_per_stage[stage]; ++blk) {
      ++block_idx;
      const std::string tag = "b" + std::to_string(block_idx);
      const std::int64_t stride = (stage > 0 && blk == 0) ? 2 : 1;
      const NodeId shortcut_src = c.at();
      if (bottleneck) {
        c.conv(width, 1, 1, 0, tag + "_conv1");
        c.bn(tag + "_bn1");
        c.relu(tag + "_relu1");
        c.conv(width, 3, stride, 1, tag + "_conv2");
        c.bn(tag + "_bn2");
        c.relu(tag + "_relu2");
        c.conv(out_ch, 1, 1, 0, tag + "_conv3");
        c.bn(tag + "_bn3");
      } else {
        c.conv(out_ch, 3, stride, 1, tag + "_conv1");
        c.bn(tag + "_bn1");
        c.relu(tag + "_relu1");
        c.conv(out_ch, 3, 1, 1, tag + "_conv2");
        c.bn(tag + "_bn2");
      }
      const NodeId main_path = c.at();
      NodeId shortcut = shortcut_src;
      if (stride != 1 || channels != out_ch) {
        c.jump_to(shortcut_src);
        c.conv(out_ch, 1, stride, 0, tag + "_down");
        c.bn(tag + "_down_bn");
        shortcut = c.at();
      }
      c.jump_to(main_path);
      c.add_from(shortcut, tag + "_add");
      c.relu(tag + "_out");
      channels = out_ch;
    }
  }
  c.gavg("gavg");
  c.fc(num_classes, "fc");
  c.softmax("softmax");
  return g;
}

/// VGG-style plain stack: conv/relu blocks separated by 2x2 maxpools, then
/// the 4096-4096-classes head.
Graph vgg_like(const std::string& name,
               const std::vector<std::vector<std::int64_t>>& blocks,
               std::int64_t num_classes, std::int64_t resolution) {
  Graph g(name);
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  int layer = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::int64_t ch : blocks[b]) {
      ++layer;
      c.conv(ch, 3, 1, 1, "conv" + std::to_string(layer));
      c.relu("relu" + std::to_string(layer));
    }
    c.maxpool(2, 2, "pool" + std::to_string(b + 1));
  }
  c.flatten("flatten");
  c.fc(4096, "fc1");
  c.relu("relu_fc1");
  c.fc(4096, "fc2");
  c.relu("relu_fc2");
  c.fc(num_classes, "fc3");
  c.softmax("softmax");
  return g;
}

}  // namespace

Graph resnet18(std::int64_t num_classes, std::int64_t resolution) {
  return resnet_like("resnet18", {2, 2, 2, 2}, /*bottleneck=*/false,
                     num_classes, resolution);
}

Graph resnet34(std::int64_t num_classes, std::int64_t resolution) {
  return resnet_like("resnet34", {3, 4, 6, 3}, /*bottleneck=*/false,
                     num_classes, resolution);
}

Graph resnet50(std::int64_t num_classes, std::int64_t resolution) {
  return resnet_like("resnet50", {3, 4, 6, 3}, /*bottleneck=*/true,
                     num_classes, resolution);
}

Graph vgg16(std::int64_t num_classes, std::int64_t resolution) {
  return vgg_like("vgg16",
                  {{64, 64},
                   {128, 128},
                   {256, 256, 256},
                   {512, 512, 512},
                   {512, 512, 512}},
                  num_classes, resolution);
}

Graph vgg19(std::int64_t num_classes, std::int64_t resolution) {
  return vgg_like("vgg19",
                  {{64, 64},
                   {128, 128},
                   {256, 256, 256, 256},
                   {512, 512, 512, 512},
                   {512, 512, 512, 512}},
                  num_classes, resolution);
}

Graph googlenet(std::int64_t num_classes, std::int64_t resolution) {
  Graph g("googlenet");
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  c.conv(64, 7, 2, 3, "conv1");
  c.relu("relu1");
  c.maxpool(3, 2, "pool1", 1);
  c.conv(64, 1, 1, 0, "conv2a");
  c.relu("relu2a");
  c.conv(192, 3, 1, 1, "conv2b");
  c.relu("relu2b");
  c.maxpool(3, 2, "pool2", 1);

  int idx = 0;
  // Inception module: 1x1 | 1x1->3x3 | 1x1->5x5 | pool->1x1, channel concat.
  auto inception = [&](std::int64_t c1, std::int64_t r3, std::int64_t c3,
                       std::int64_t r5, std::int64_t c5, std::int64_t cp) {
    ++idx;
    const std::string tag = "inc" + std::to_string(idx);
    const NodeId in = c.at();
    c.conv(c1, 1, 1, 0, tag + "_b1");
    c.relu(tag + "_b1r");
    const NodeId b1 = c.at();
    c.jump_to(in);
    c.conv(r3, 1, 1, 0, tag + "_b2a");
    c.relu(tag + "_b2ar");
    c.conv(c3, 3, 1, 1, tag + "_b2b");
    c.relu(tag + "_b2br");
    const NodeId b2 = c.at();
    c.jump_to(in);
    c.conv(r5, 1, 1, 0, tag + "_b3a");
    c.relu(tag + "_b3ar");
    c.conv(c5, 5, 1, 2, tag + "_b3b");
    c.relu(tag + "_b3br");
    const NodeId b3 = c.at();
    c.jump_to(in);
    c.maxpool(3, 1, tag + "_b4p", 1);
    c.conv(cp, 1, 1, 0, tag + "_b4c");
    c.relu(tag + "_b4r");
    const NodeId b4 = c.at();
    c.jump_to(g.add(LayerSpec::concat(tag + "_cat"), {b1, b2, b3, b4}));
  };

  inception(64, 96, 128, 16, 32, 32);    // 3a
  inception(128, 128, 192, 32, 96, 64);  // 3b
  c.maxpool(3, 2, "pool3", 1);
  inception(192, 96, 208, 16, 48, 64);   // 4a
  inception(160, 112, 224, 24, 64, 64);  // 4b
  inception(128, 128, 256, 24, 64, 64);  // 4c
  inception(112, 144, 288, 32, 64, 64);  // 4d
  inception(256, 160, 320, 32, 128, 128);  // 4e
  c.maxpool(3, 2, "pool4", 1);
  inception(256, 160, 320, 32, 128, 128);  // 5a
  inception(384, 192, 384, 48, 128, 128);  // 5b
  c.gavg("gavg");
  c.fc(num_classes, "fc");
  c.softmax("softmax");
  return g;
}

Graph squeezenet(std::int64_t num_classes, std::int64_t resolution) {
  Graph g("squeezenet");
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  c.conv(96, 7, 2, 0, "conv1");
  c.relu("relu1");
  c.maxpool(3, 2, "pool1");

  int fire_idx = 1;
  auto fire = [&](std::int64_t squeeze, std::int64_t expand1,
                  std::int64_t expand3) {
    ++fire_idx;
    const std::string tag = "fire" + std::to_string(fire_idx);
    c.conv(squeeze, 1, 1, 0, tag + "_squeeze");
    c.relu(tag + "_srelu");
    const NodeId squeezed = c.at();
    c.conv(expand1, 1, 1, 0, tag + "_e1");
    c.relu(tag + "_e1relu");
    const NodeId left = c.at();
    c.jump_to(squeezed);
    c.conv(expand3, 3, 1, 1, tag + "_e3");
    c.relu(tag + "_e3relu");
    const NodeId right = c.at();
    c.jump_to(left);
    // Channel concat of the two expand branches.
    c.jump_to(g.add(LayerSpec::concat(tag + "_concat"), {left, right}));
  };

  fire(16, 64, 64);    // fire2
  fire(16, 64, 64);    // fire3
  fire(32, 128, 128);  // fire4
  c.maxpool(3, 2, "pool4");
  fire(32, 128, 128);  // fire5
  fire(48, 192, 192);  // fire6
  fire(48, 192, 192);  // fire7
  fire(64, 256, 256);  // fire8
  c.maxpool(3, 2, "pool8");
  fire(64, 256, 256);  // fire9
  c.conv(num_classes, 1, 1, 0, "conv10");
  c.relu("relu10");
  c.gavg("gavg");
  c.softmax("softmax");
  return g;
}

Graph mobilenet_v1(std::int64_t num_classes, std::int64_t resolution) {
  Graph g("mobilenet_v1");
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  c.conv(32, 3, 2, 1, "conv1");
  c.bn("bn1");
  c.relu("relu1");
  struct Block {
    std::int64_t out_ch;
    std::int64_t stride;
  };
  const std::vector<Block> blocks = {
      {64, 1},  {128, 2}, {128, 1}, {256, 2}, {256, 1},  {512, 2}, {512, 1},
      {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1}};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::string tag = "ds" + std::to_string(i + 1);
    c.dwconv(3, blocks[i].stride, 1, tag + "_dw");
    c.bn(tag + "_dwbn");
    c.relu(tag + "_dwrelu");
    c.conv(blocks[i].out_ch, 1, 1, 0, tag + "_pw");
    c.bn(tag + "_pwbn");
    c.relu(tag + "_pwrelu");
  }
  c.gavg("gavg");
  c.fc(num_classes, "fc");
  c.softmax("softmax");
  return g;
}

Graph tiny_yolo(std::int64_t anchors_times_preds, std::int64_t resolution) {
  Graph g("tiny_yolo");
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  const std::vector<std::int64_t> channels = {16, 32, 64, 128, 256, 512};
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const std::string idx = std::to_string(i + 1);
    c.conv(channels[i], 3, 1, 1, "conv" + idx);
    c.bn("bn" + idx);
    c.relu("relu" + idx);
    // The last pool keeps resolution (stride 1, pad via kernel trick is
    // omitted; standard tiny-yolo uses a stride-1 maxpool here).
    if (i + 1 < channels.size()) {
      c.maxpool(2, 2, "pool" + idx);
    } else {
      c.maxpool(2, 1, "pool" + idx, 1);
    }
  }
  c.conv(1024, 3, 1, 1, "conv7");
  c.bn("bn7");
  c.relu("relu7");
  c.conv(1024, 3, 1, 1, "conv8");
  c.bn("bn8");
  c.relu("relu8");
  c.conv(anchors_times_preds, 1, 1, 0, "detect");
  return g;
}

Graph tiny_cnn(std::int64_t num_classes, std::int64_t resolution) {
  Graph g("tiny_cnn");
  Chain c(g);
  c.input(Shape{3, resolution, resolution});
  c.conv(16, 3, 1, 1, "conv1");
  c.relu("relu1");
  c.maxpool(2, 2, "pool1");
  c.conv(32, 3, 1, 1, "conv2");
  c.relu("relu2");
  c.maxpool(2, 2, "pool2");
  c.conv(64, 3, 1, 1, "conv3");
  c.relu("relu3");
  c.maxpool(2, 2, "pool3");
  c.flatten("flatten");
  c.fc(128, "fc1");
  c.relu("relu_fc1");
  c.fc(num_classes, "fc2");
  c.softmax("softmax");
  return g;
}

std::vector<Graph> zoo() {
  std::vector<Graph> z;
  for (const auto& name : zoo_names()) z.push_back(by_name(name));
  return z;
}

Graph by_name(const std::string& name) {
  if (name == "lenet5") return lenet5();
  if (name == "alexnet") return alexnet();
  if (name == "vgg16") return vgg16();
  if (name == "vgg19") return vgg19();
  if (name == "resnet18") return resnet18();
  if (name == "resnet34") return resnet34();
  if (name == "resnet50") return resnet50();
  if (name == "googlenet") return googlenet();
  if (name == "squeezenet") return squeezenet();
  if (name == "mobilenet_v1") return mobilenet_v1();
  if (name == "tiny_yolo") return tiny_yolo();
  if (name == "tiny_cnn") return tiny_cnn();
  SCALPEL_REQUIRE(false, "unknown model name: " + name);
}

std::vector<std::string> zoo_names() {
  return {"lenet5",     "alexnet",  "vgg16",      "vgg19",
          "resnet18",   "resnet34", "resnet50",   "googlenet",
          "squeezenet", "mobilenet_v1", "tiny_yolo", "tiny_cnn"};
}

}  // namespace scalpel::models
