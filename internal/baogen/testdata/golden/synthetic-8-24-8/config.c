#include <config.h>

VM_IMAGE(vm1, vm1image.bin);
VM_IMAGE(vm2, vm2image.bin);
VM_IMAGE(vm3, vm3image.bin);
VM_IMAGE(vm4, vm4image.bin);
VM_IMAGE(vm5, vm5image.bin);
VM_IMAGE(vm6, vm6image.bin);
VM_IMAGE(vm7, vm7image.bin);
VM_IMAGE(vm8, vm8image.bin);

struct config config = {
  CONFIG_HEADER
  .vmlist_size = 8,
  .vmlist = {
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm1),
        .size = VM_IMAGE_SIZE(vm1)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b1,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10000000, .va = 0x10000000, .size = 0x1000 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm2),
        .size = VM_IMAGE_SIZE(vm2)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b10,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10010000, .va = 0x10010000, .size = 0x1000 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm3),
        .size = VM_IMAGE_SIZE(vm3)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b100,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10020000, .va = 0x10020000, .size = 0x1000 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm4),
        .size = VM_IMAGE_SIZE(vm4)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b1000,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10030000, .va = 0x10030000, .size = 0x1000 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm5),
        .size = VM_IMAGE_SIZE(vm5)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b10000,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10040000, .va = 0x10040000, .size = 0x1000 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm6),
        .size = VM_IMAGE_SIZE(vm6)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b100000,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10050000, .va = 0x10050000, .size = 0x1000 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm7),
        .size = VM_IMAGE_SIZE(vm7)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b1000000,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10060000, .va = 0x10060000, .size = 0x1000 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm8),
        .size = VM_IMAGE_SIZE(vm8)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b10000000,
      .platform = { .cpu_num = 1, .dev_num = 1,
        .region_num = 1,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x40000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x10070000, .va = 0x10070000, .size = 0x1000 },
        },
      },
    },
  },
};
